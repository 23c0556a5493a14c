package core_test

import (
	"strings"
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/vclstdlib"
)

func TestVPlotAndVCtrl(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	s := core.NewSession(k.Target(), nil)
	p, err := s.VPlotFigure("7-1")
	if err != nil {
		t.Fatalf("vplot: %v", err)
	}
	if p.ID != 1 {
		t.Errorf("first pane id = %d", p.ID)
	}
	out, err := s.VCtrl("show 1 text")
	if err != nil {
		t.Fatalf("show: %v", err)
	}
	if !strings.Contains(out, "RunQueue") {
		t.Errorf("rendering misses the run queue:\n%.300s", out)
	}
	if _, err := s.VCtrl("viewql 1 a = SELECT task_struct FROM *\nUPDATE a WITH view: sched"); err != nil {
		t.Fatalf("viewql: %v", err)
	}
	out, _ = s.VCtrl("show 1 text")
	if !strings.Contains(out, "vruntime") {
		t.Errorf("sched view not applied:\n%.300s", out)
	}
	if _, err := s.VCtrl("layout"); err != nil {
		t.Fatalf("layout: %v", err)
	}
}

// TestFigure2 reproduces experiment E4: two panes (parent tree + sched
// tree), then the cross-pane focus operation finds the same task in both.
func TestFigure2(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	s := core.NewSession(k.Target(), nil)
	if _, err := s.VPlotFigure("3-4"); err != nil {
		t.Fatalf("vplot 3-4: %v", err)
	}
	if _, err := s.VPlotFigure("7-1"); err != nil {
		t.Fatalf("vplot 7-1: %v", err)
	}
	// pid 101 is a runnable workload thread scheduled on CPU 0, so it
	// appears in the parent tree (pane 1) and CPU 0's run queue (pane 2).
	out, err := s.VCtrl("focus pid=101")
	if err != nil {
		t.Fatalf("focus: %v", err)
	}
	if !strings.Contains(out, "pane 1") || !strings.Contains(out, "pane 2") {
		t.Errorf("focus should hit both panes:\n%s", out)
	}
	// Focus on a sleeping daemon: present in the process tree only.
	out, err = s.VCtrl("focus comm=sshd")
	if err != nil {
		t.Fatalf("focus: %v", err)
	}
	if !strings.Contains(out, "pane 1") || strings.Contains(out, "pane 2") {
		t.Errorf("sshd should only appear in the parent tree:\n%s", out)
	}
}

func TestSecondaryPane(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	s := core.NewSession(k.Target(), nil)
	if _, err := s.VPlotFigure("3-4"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.VCtrl("viewql 1 workers = SELECT task_struct FROM * WHERE comm == \"workload-0\""); err != nil {
		t.Fatalf("viewql: %v", err)
	}
	out, err := s.VCtrl("select 1 workers focus-on-workload")
	if err != nil {
		t.Fatalf("select: %v", err)
	}
	if !strings.Contains(out, "secondary pane") {
		t.Errorf("no secondary pane: %s", out)
	}
	// Linked panes: collapsing in the secondary pane is visible in the
	// primary (shared boxes).
	if _, err := s.VCtrl("viewql 2 w = SELECT task_struct FROM *\nUPDATE w WITH collapsed: true"); err != nil {
		t.Fatalf("refine secondary: %v", err)
	}
	p1, _ := s.Tree.Pane(1)
	collapsed := 0
	for _, b := range p1.Graph.ByType("task_struct") {
		if b.Collapsed() {
			collapsed++
		}
	}
	if collapsed == 0 {
		t.Errorf("linked-pane update not visible in primary")
	}
}

func TestVChatEndToEnd(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	s := core.NewSession(k.Target(), nil)
	if _, err := s.VPlotFigure("3-4"); err != nil {
		t.Fatal(err)
	}
	prog, err := s.VChat(1, "shrink tasks that have no address space")
	if err != nil {
		t.Fatalf("vchat: %v", err)
	}
	// "Task" (the box label) and "task_struct" (the C type) are equivalent
	// selectors in ViewQL; the synthesizer may ground to either.
	if !(strings.Contains(prog, "SELECT Task") || strings.Contains(prog, "SELECT task_struct")) ||
		!strings.Contains(prog, "collapsed") {
		t.Errorf("unexpected synthesis:\n%s", prog)
	}
	p, _ := s.Tree.Pane(1)
	n := 0
	for _, b := range p.Graph.ByType("task_struct") {
		if b.Collapsed() {
			n++
		}
	}
	if n == 0 {
		t.Errorf("vchat had no effect")
	}
}

func TestAllFiguresThroughSession(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	s := core.NewSession(k.Target(), nil)
	for _, id := range core.FigureIDs() {
		if _, err := s.VPlotFigure(id); err != nil {
			t.Errorf("figure %s: %v", id, err)
		}
	}
	if len(s.Tree.Panes()) != len(vclstdlib.Figures()) {
		t.Errorf("panes = %d, want %d", len(s.Tree.Panes()), len(vclstdlib.Figures()))
	}
	if len(s.History) == 0 {
		t.Errorf("history not recorded")
	}
}

func TestErrorsSurface(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	s := core.NewSession(k.Target(), nil)
	if _, err := s.VPlot("bad", "this is not viewcl"); err == nil {
		t.Errorf("no error for bad program")
	}
	if _, err := s.VCtrl("show 1"); err == nil {
		t.Errorf("no error for vctrl before vplot")
	}
	if _, err := s.VPlotFigure("7-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.VCtrl("show 99"); err == nil {
		t.Errorf("no error for missing pane")
	}
	if _, err := s.VCtrl("viewql 1 garbage $$$"); err == nil {
		t.Errorf("no error for bad viewql")
	}
	if _, err := s.VChat(1, "fjdkslfjdsl"); err == nil {
		t.Errorf("no error for nonsense chat")
	}
}

func TestVCtrlExpand(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	s := core.NewSession(k.Target(), nil)
	if _, err := s.VPlotFigure("3-4"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.VCtrl("viewql 1 kt = SELECT task_struct FROM * WHERE mm == NULL\nUPDATE kt WITH collapsed: true"); err != nil {
		t.Fatal(err)
	}
	out, err := s.VCtrl("expand 1 kt")
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	if !strings.Contains(out, "expanded") || strings.HasPrefix(out, "0 ") {
		t.Errorf("expand output: %q", out)
	}
	p, _ := s.Tree.Pane(1)
	for _, b := range p.Graph.ByType("task_struct") {
		if b.Collapsed() {
			t.Errorf("%s still collapsed", b.ID)
		}
	}
	if _, err := s.VCtrl("expand 1 nosuchset"); err == nil {
		t.Error("expand of unknown set accepted")
	}
	// expand-all path (no set)
	if _, err := s.VCtrl("viewql 1 a = SELECT task_struct FROM *\nUPDATE a WITH collapsed: true"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.VCtrl("expand 1"); err != nil {
		t.Fatal(err)
	}
	for _, b := range p.Graph.ByType("task_struct") {
		if b.Collapsed() {
			t.Errorf("expand-all missed %s", b.ID)
		}
	}
}
