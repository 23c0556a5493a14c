// Quickstart: the paper's §1 walkthrough end to end.
//
//  1. Build a simulated kernel (the QEMU guest stand-in).
//  2. vplot the ViewCL program that extracts the CFS run queue of CPU 0 as
//     a red-black tree of pruned task boxes.
//  3. Apply the §1 ViewQL program that collapses every task except one pid
//     and its children.
//  4. vchat the same customization in natural language and show the
//     synthesized ViewQL.
package main

import (
	"fmt"
	"log"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/render"
	"visualinux/internal/vclstdlib"
)

func main() {
	fmt.Println("== Visualinux quickstart: the CFS run queue, visually ==")
	kernel := kernelsim.Build(kernelsim.Options{})
	session := core.NewSession(kernel.Target(), nil)
	fmt.Printf("simulated kernel: %d tasks\n\n", len(kernel.Tasks))

	// (1) vplot: evaluate the ViewCL program from the paper's §1.
	pane, err := session.VPlot("sched", vclstdlib.QuickstartProgram)
	if err != nil {
		log.Fatalf("vplot: %v", err)
	}
	fmt.Println("-- extracted run queue (in vruntime order) --")
	fmt.Print(render.Text(pane.Graph))

	// (2) ViewQL: focus on process 100 and its children.
	if err := session.ApplyViewQL(pane.ID, vclstdlib.QuickstartCustomization); err != nil {
		log.Fatalf("viewql: %v", err)
	}
	fmt.Println("\n-- after ViewQL (everything but pid 100's family collapsed) --")
	fmt.Print(render.Text(pane.Graph))

	// (3) vchat: the same intent in natural language.
	prog, err := session.VChat(pane.ID, "shrink task_struct entries except for pid 100 and 101")
	if err != nil {
		log.Fatalf("vchat: %v", err)
	}
	fmt.Println("\n-- vchat synthesized this ViewQL from natural language --")
	fmt.Print(prog)

	// (4) stats, as Table 4 reports them.
	st := pane.Graph.Stats
	fmt.Printf("\nextraction stats: %d objects, %d reads, %d bytes, %.2fms\n",
		st.Objects, st.Reads, st.Bytes, float64(st.DurationNS)/1e6)
}
