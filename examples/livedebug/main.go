// Live debugging: the paper's iterative "guess-and-check" loop (§3) with a
// kernel that moves between plots. We replay CVE-2022-0847 as a staged
// attack — pause, plot, step, re-plot — watching the figure evolve exactly
// as §5.3 describes ("This figure evolves as the debugging process
// proceeds"), then do the same for the StackRot deferred-free window using
// mmap-triggered maple rebuilds.
package main

import (
	"fmt"
	"log"
	"strings"

	"visualinux/internal/core"
	"visualinux/internal/graph"
	"visualinux/internal/kernelsim"
	"visualinux/internal/vclstdlib"
)

const pipeProgram = `
define PageBox as Box<page> [
    Text index
    Text<flag:page_flags> flags: flags
]
define PipeBuffer as Box<pipe_buffer> [
    Text len
    Text<flag:pipe_buf_flags> flags: flags
    Link page -> PageBox(${@this->page})
]
define Pipe as Box<pipe_inode_info> [
    Text head, tail
    Container bufs: PipeRing(@this).forEach |b| {
        yield PipeBuffer(@b)
    }
]
define AddressSpace as Box<address_space> [
    Text nrpages
    Container pages: XArray(${@this->i_pages}).forEach |e| {
        yield PageBox(@e)
    }
]
define FileBox as Box<file> [
    Text name: ${@this->f_path.dentry->d_iname}
    Link pagecache -> AddressSpace(${@this->f_mapping})
]
f = FileBox(${find_task(100)->files->fdt->fd[3]})
p = Pipe(${&live_pipe})
plot @f
plot @p
`

func main() {
	fmt.Println("== Live debugging: stepping the kernel between plots ==")
	k := kernelsim.Build(kernelsim.Options{DisableDirtyPipe: true})
	pipe := k.MakePipe()
	k.Symbol("live_pipe", k.At("pipe_inode_info", pipe.Addr))

	plot := func(label string) *graph.Graph {
		session := core.NewSession(k.Target(), nil)
		p, err := session.VPlot(label, pipeProgram)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		g := p.Graph
		fromFile := g.Reachable([]string{g.Roots[0]})
		fromPipe := g.Reachable([]string{g.Roots[1]})
		shared, dirty := 0, 0
		for _, b := range g.ByType("page") {
			if fromFile[b.ID] && fromPipe[b.ID] {
				shared++
			}
			if fl, ok := b.Member("flags"); ok && strings.Contains(fl.Value, "PG_dirty") {
				dirty++
			}
		}
		fmt.Printf("[%-22s] boxes=%-3d shared file<->pipe pages=%d dirty pages=%d\n",
			label, len(g.Boxes), shared, dirty)
		return g
	}

	fmt.Println("\n-- Dirty Pipe, step by step --")
	plot("0: fresh pipe")

	must(k.PipeWrite(pipe, 128))
	plot("1: normal pipe write")

	// Splice the file the plot is watching: pid 100's fd 3.
	files := k.At("files_struct", k.ByPID[100].Get("files"))
	fd3, _ := k.Mem.ReadU64(files.FieldAddr("fd_array") + 3*8)
	file := k.At("file", fd3)
	must(k.SpliceToPipe(file, 0, pipe, 512, true /* the CVE: flags not cleared */))
	plot("2: buggy splice()")

	must(k.PipeWrite(pipe, 64))
	g := plot("3: attacker write")
	for _, b := range g.ByType("pipe_buffer") {
		fl, _ := b.Member("flags")
		pg, _ := b.Member("page")
		if pg.TargetID != "" && strings.Contains(fl.Value, "CAN_MERGE") {
			if pb, ok := g.Get(pg.TargetID); ok {
				if pfl, ok := pb.Member("flags"); ok && strings.Contains(pfl.Value, "PG_dirty") {
					fmt.Printf("    => %s merged into %s: the file's cache page is now DIRTY\n", b.ID, pg.TargetID)
				}
			}
		}
	}

	fmt.Println("\n-- StackRot window, step by step --")
	victim := k.ByPID[100]
	k.Symbol("stackrot_mm", k.At("mm_struct", victim.Get("mm")))
	plotSR := func(label string) {
		session := core.NewSession(k.Target(), nil)
		p, err := session.VPlot(label, vclstdlib.StackRotProgram)
		if err != nil {
			log.Fatalf("%s: %v", label, err)
		}
		g := p.Graph
		fmt.Printf("[%-22s] rcu callbacks=%d dead maple nodes linked=%d\n",
			label, len(g.ByType("rcu_head")), countDead(g))
	}
	plotSR("0: quiescent")
	if _, err := k.MapRegion(100, 0x7200_0000_0000, 0x7200_0002_0000,
		kernelsim.VMRead|kernelsim.VMWrite, kernelsim.Obj{}); err != nil {
		log.Fatal(err)
	}
	plotSR("1: stack-expand mmap")
	fmt.Println("    => the replaced maple nodes now sit on the RCU waiting list while")
	fmt.Println("       concurrent readers may still dereference them (CVE-2023-3269)")
}

func countDead(g *graph.Graph) int {
	n := 0
	for _, h := range g.ByType("rcu_head") {
		if e, ok := h.Member("embedded_in"); ok && e.TargetID != "" {
			n++
		}
	}
	return n
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
