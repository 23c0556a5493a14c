// Dirty Pipe (CVE-2022-0847): the paper's §5.3 case study (Fig 7).
//
// The staged state: a splice() moved data from test.txt into a pipe
// zero-copy, and copy_page_to_iter_pipe() forgot to initialize the buffer
// flags — the stale PIPE_BUF_FLAG_CAN_MERGE marks a page-cache page as
// writable through the pipe. The ViewCL program plots the page caches of
// all files and all pipe rings of the victim process; the paper's ViewQL
// trims every page except those shared between a file and a pipe, leaving
// exactly the corrupted sharing visible.
package main

import (
	"fmt"
	"log"
	"strings"

	"visualinux/internal/core"
	"visualinux/internal/graph"
	"visualinux/internal/kernelsim"
	"visualinux/internal/render"
	"visualinux/internal/vclstdlib"
)

func main() {
	fmt.Println("== Visualinux case study (3): Dirty Pipe (CVE-2022-0847) ==")
	kernel := kernelsim.Build(kernelsim.Options{})
	session := core.NewSession(kernel.Target(), nil)

	pane, err := session.VPlot("dirtypipe", vclstdlib.DirtyPipeProgram)
	if err != nil {
		log.Fatalf("vplot: %v", err)
	}
	g := pane.Graph
	fmt.Printf("extracted %d boxes from pid 107's fd table\n", len(g.Boxes))

	pagesBefore := 0
	for _, b := range g.ByType("page") {
		if render.Visible(g)[b.ID] {
			pagesBefore++
		}
	}

	// The paper's §5.3 ViewQL: REACHABLE sets + set difference.
	fmt.Println("\napplying the paper's ViewQL (trim pages not shared file<->pipe):")
	fmt.Print(vclstdlib.DirtyPipeCustomization)
	if err := session.ApplyViewQL(pane.ID, vclstdlib.DirtyPipeCustomization); err != nil {
		log.Fatalf("viewql: %v", err)
	}

	vis := render.Visible(g)
	pagesAfter := 0
	for _, b := range g.ByType("page") {
		if vis[b.ID] {
			pagesAfter++
		}
	}
	fmt.Printf("\nvisible pages: %d before -> %d after\n", pagesBefore, pagesAfter)

	shared := graph.BoxID("PageBox", kernel.SharedPage.Addr)
	fmt.Printf("shared page %s still visible: %v\n", shared, vis[shared])

	// Point at the bug: the buffer holding the shared page with CAN_MERGE.
	for _, b := range g.ByType("pipe_buffer") {
		fl, _ := b.Member("flags")
		pg, _ := b.Member("page")
		if pg.TargetID == shared {
			fmt.Printf("\npipe_buffer %s:\n  page  -> %s (test.txt page cache!)\n  flags =  %s\n",
				b.ID, pg.TargetID, fl.Value)
			if strings.Contains(fl.Value, "CAN_MERGE") {
				fmt.Println("  => BUG: CAN_MERGE on a spliced page-cache page lets pipe writes")
				fmt.Println("     merge into the shared page, corrupting the file (CVE-2022-0847)")
			}
		}
	}

	fmt.Println("\n-- final plot --")
	fmt.Print(render.Text(g))
}
