// Command ulkgen regenerates the paper's Table 2: it evaluates every ULK
// figure program against the simulated kernel, reports per-figure ViewCL
// LOC and the structure-change class, and can dump each figure's plot.
//
// Usage:
//
//	ulkgen              # print Table 2
//	ulkgen -render 7-1  # also print the rendered plot of one figure
//	ulkgen -render all  # render every figure
//	ulkgen -dot 9-2     # emit Graphviz dot for one figure
package main

import (
	"flag"
	"fmt"
	"os"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/render"
	"visualinux/internal/vclstdlib"
)

func main() {
	renderID := flag.String("render", "", "render a figure's plot as text ('all' for every figure)")
	dotID := flag.String("dot", "", "emit Graphviz dot for a figure")
	flag.Parse()

	k := kernelsim.Build(kernelsim.Options{})
	s := core.NewSession(k.Target(), nil)

	fmt.Println("Table 2: representative ULK figures ported to the simulated Linux 6.1 state")
	fmt.Printf("%-4s %-12s %-52s %5s %8s  %s\n", "#", "figure", "description", "LOC", "paperLOC", "delta")
	for i, fig := range vclstdlib.Figures() {
		p, err := s.VPlot(fig.ID, fig.Program)
		status := ""
		boxes := 0
		if err != nil {
			status = " EXTRACTION FAILED: " + err.Error()
		} else {
			boxes = len(p.Graph.Boxes)
		}
		fmt.Printf("%-4d %-12s %-52s %5d %8d  %s (%s)  [%d boxes]%s\n",
			i+1, fig.ID, fig.Title, fig.LOC(), fig.PaperLOC, fig.Delta.Symbol(), fig.Delta, boxes, status)
	}

	dump := func(id string, asDot bool) {
		fig, ok := vclstdlib.FigureByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "ulkgen: unknown figure %q\n", id)
			os.Exit(1)
		}
		p, err := s.VPlot(fig.ID+"-render", fig.Program)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ulkgen: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\n--- figure %s: %s ---\n", fig.ID, fig.Title)
		if asDot {
			fmt.Print(render.DOT(p.Graph))
		} else {
			fmt.Print(render.Text(p.Graph))
		}
	}
	if *renderID == "all" {
		for _, fig := range vclstdlib.Figures() {
			dump(fig.ID, false)
		}
	} else if *renderID != "" {
		dump(*renderID, false)
	}
	if *dotID != "" {
		dump(*dotID, true)
	}
}
