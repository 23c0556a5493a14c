// StackRot (CVE-2023-3269): the paper's §3.2 / §5.3 case study.
//
// The kernel state is staged at the UAF window of Fig 5: CPU 0 freed a
// maple node under mm_read_lock; the free is deferred behind the RCU grace
// period (the node sits on rcu_data[0]'s callback list with mt_free_rcu)
// while CPU 1 still holds a pointer into the node. Plotting the mm's maple
// tree and the RCU waiting list side by side shows the SAME node box in
// both structures — the visual root cause. A natural-language vchat request
// then pins the node the developer fetched, hiding everything else.
package main

import (
	"fmt"
	"log"

	"visualinux/internal/core"
	"visualinux/internal/graph"
	"visualinux/internal/kernelsim"
	"visualinux/internal/render"
	"visualinux/internal/vclstdlib"
)

func main() {
	fmt.Println("== Visualinux case study (2): StackRot (CVE-2023-3269) ==")
	kernel := kernelsim.Build(kernelsim.Options{})
	session := core.NewSession(kernel.Target(), nil)

	pane, err := session.VPlot("stackrot", vclstdlib.StackRotProgram)
	if err != nil {
		log.Fatalf("vplot: %v", err)
	}
	g := pane.Graph

	// The diagnosis: one maple node reachable from both plotted roots.
	dying := graph.BoxID("MapleLeaf", kernel.StackRotNode.Addr)
	fromTree := g.Reachable([]string{g.Roots[0]})
	fromRCU := g.Reachable([]string{g.Roots[1]})
	fmt.Printf("\nmm plot root:  %s\nrcu plot root: %s\n", g.Roots[0], g.Roots[1])
	fmt.Printf("maple node %s:\n  in mm's maple tree: %v\n  on RCU waiting list: %v\n",
		dying, fromTree[dying], fromRCU[dying])
	if fromTree[dying] && fromRCU[dying] {
		fmt.Println("  => USE-AFTER-FREE WINDOW: readers can still reach a node queued for free")
	}

	// Lock state, as the paper suggests visualizing.
	for _, b := range g.ByType("mm_struct") {
		readers, _ := b.Member("mmap_lock_readers")
		held, _ := b.Member("lock_held")
		fmt.Printf("mmap_lock: %s readers, held=%s\n", readers.Value, held.Value)
	}

	// The paper's natural-language pinning instruction.
	victim := kernel.StackRotVictim.Addr
	req := fmt.Sprintf("Find me all vm_area_struct whose address is not 0x%x, and hide them", victim)
	fmt.Printf("\nvchat> %s\n", req)
	prog, err := session.VChat(pane.ID, req)
	if err != nil {
		log.Fatalf("vchat: %v", err)
	}
	fmt.Println("synthesized ViewQL:")
	fmt.Print(prog)

	fmt.Println("\n-- final plot (only the victim VMA and the dying node's structures) --")
	fmt.Print(render.Text(g))
}
