// Maple tree live visualization: the paper's §3.1 case study.
//
// The maple tree replaced the VMA red-black tree in Linux 6.1 and is barely
// documented; this example plots a real (simulated) process address space:
// the tagged-pointer node tree is unwrapped with switch-case ViewCL, then
// customized with the paper's Fig 4 ViewQL (collapse slot arrays, trim
// writable VMAs), and finally distilled into a pmap-like sorted list.
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
	fmt.Println("== Visualinux case study (1): the maple tree ==")
	k := kernelsim.Build(kernelsim.Options{})
	session := core.NewSession(k.Target(), nil)

	pane, err := session.VPlot("maple", vclstdlib.MapleTreeProgram)
	if err != nil {
		log.Fatalf("vplot: %v", err)
	}
	g := pane.Graph
	nodes := g.ByType("maple_node")
	vmas := g.ByType("vm_area_struct")
	fmt.Printf("extracted: %d maple nodes, %d VMAs, %d boxes total\n\n",
		len(nodes), len(vmas), len(g.Boxes))

	fmt.Println("-- raw maple tree (default view shows only mm counters) --")
	fmt.Print(render.Text(g))

	if err := session.ApplyViewQL(pane.ID, vclstdlib.MapleTreeCustomization); err != nil {
		log.Fatalf("viewql: %v", err)
	}
	fmt.Println("\n-- after the paper's Fig 4 ViewQL (tree view, slots collapsed, writable VMAs trimmed) --")
	fmt.Print(render.Text(g))

	// Distill: the :show_addrspace view's sorted interval list.
	if err := session.ApplyViewQL(pane.ID, `
mm = SELECT mm_struct FROM *
UPDATE mm WITH view: show_addrspace
writable = SELECT vm_area_struct FROM * WHERE is_writable == true
UPDATE writable WITH trimmed: false
`); err != nil {
		log.Fatalf("viewql: %v", err)
	}
	fmt.Println("\n-- distilled pmap-like address space (Array.selectFrom) --")
	for _, b := range g.ByType("mm_struct") {
		if space, ok := b.Member("mm_addr_space"); ok {
			for _, id := range space.Elems {
				if id == "" {
					continue
				}
				v, _ := g.Get(id)
				start, _ := v.Member("vm_start")
				end, _ := v.Member("vm_end")
				flags, _ := v.Member("vm_flags")
				file := "(anon)"
				if f, ok := v.Member("vm_file"); ok && f.TargetID != "" {
					if fb, ok := g.Get(f.TargetID); ok {
						if n, ok := fb.Member("name"); ok {
							file = n.Value
						}
					}
				}
				fmt.Printf("  %s-%s  %-32s %s\n", start.Value, end.Value, flags.Value, file)
			}
		}
	}
}
