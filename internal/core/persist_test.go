package core_test

import (
	"strings"
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
)

func TestSessionPersistence(t *testing.T) {
	// First session: two panes, customizations, named sets, a secondary.
	k := kernelsim.Build(kernelsim.Options{})
	s1 := core.NewSession(k.Target(), nil)
	if _, err := s1.VPlotFigure("3-4"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.VPlotFigure("7-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.VCtrl("viewql 1 kt = SELECT task_struct FROM * WHERE mm == NULL\nUPDATE kt WITH collapsed: true"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.VCtrl("viewql 2 a = SELECT task_struct FROM *\nUPDATE a WITH view: sched"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.VCtrl("select 1 kt kernel-threads"); err != nil {
		t.Fatal(err)
	}

	data, err := s1.Export()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if !strings.Contains(string(data), "collapsed") {
		t.Errorf("export misses attributes")
	}

	// Second session over the SAME kernel (the paper's "reuse across
	// debugging sessions": reattach and replay the view setup).
	s2 := core.NewSession(k.Target(), nil)
	if err := s2.Import(data); err != nil {
		t.Fatalf("import: %v", err)
	}
	if got := len(s2.Tree.Panes()); got != 3 {
		t.Fatalf("restored panes = %d, want 3", got)
	}
	p1, _ := s2.Tree.Pane(1)
	collapsed := 0
	for _, b := range p1.Graph.ByType("task_struct") {
		if b.Collapsed() {
			collapsed++
		}
	}
	if collapsed == 0 {
		t.Errorf("collapsed attributes not restored")
	}
	if p1.Engine.Set("kt") == nil {
		t.Errorf("named sets not restored")
	}
	p2, _ := s2.Tree.Pane(2)
	sched := 0
	for _, b := range p2.Graph.ByType("task_struct") {
		if b.CurrentView().Name == "sched" {
			sched++
		}
	}
	if sched == 0 {
		t.Errorf("view attribute not restored")
	}
	p3, _ := s2.Tree.Pane(3)
	if p3.Kind.String() != "secondary" || len(p3.Selection) == 0 {
		t.Errorf("secondary pane not restored: %+v", p3)
	}

	// Import into a dirty session must refuse.
	if err := s2.Import(data); err == nil {
		t.Errorf("import into non-fresh session accepted")
	}
	// Corrupt data must error.
	s3 := core.NewSession(k.Target(), nil)
	if err := s3.Import([]byte("{nope")); err == nil {
		t.Errorf("corrupt import accepted")
	}
}

// TestImportReservesPaneIDs regression-tests the import pane-ID collision:
// a saved state whose pane numbering has gaps (panes deleted, or exported
// from a longer-lived session) used to renumber densely on import, letting
// the next vplot mint an ID the saved session already used — aliasing a
// pane a client still holds. Import must push ID allocation past the
// imported maximum.
func TestImportReservesPaneIDs(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	s1 := core.NewSession(k.Target(), nil)
	if _, err := s1.VPlotFigure("3-4"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.VPlotFigure("7-1"); err != nil {
		t.Fatal(err)
	}
	data, err := s1.Export()
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a gapped saved state: the second pane was exported as ID 7.
	gapped := strings.Replace(string(data), `"id": 2`, `"id": 7`, 1)

	s2 := core.NewSession(k.Target(), nil)
	if err := s2.Import([]byte(gapped)); err != nil {
		t.Fatalf("import: %v", err)
	}
	p, err := s2.VPlotFigure("6-1")
	if err != nil {
		t.Fatal(err)
	}
	if p.ID <= 7 {
		t.Fatalf("post-import vplot got pane ID %d, which collides with the "+
			"imported state's ID space (max saved ID 7)", p.ID)
	}
}

func TestVPlotAuto(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	s := core.NewSession(k.Target(), nil)
	p, prog, err := s.VPlotAuto("task_struct", "&init_task")
	if err != nil {
		t.Fatalf("auto: %v", err)
	}
	if !strings.Contains(prog, "define TaskStruct as Box<task_struct>") {
		t.Errorf("generated program:\n%s", prog)
	}
	root, _ := p.Graph.Get(p.Graph.RootID)
	if root == nil {
		t.Fatal("no root box")
	}
	pid, ok := root.Member("pid")
	if !ok || pid.Raw != 0 {
		t.Errorf("auto plot pid = %+v", pid)
	}
	if comm, ok := root.Member("comm"); !ok || comm.Value != "swapper/0" {
		t.Errorf("auto plot comm = %+v", comm)
	}
	// Unknown type errors cleanly.
	if _, _, err := s.VPlotAuto("no_such_struct", "0"); err == nil {
		t.Errorf("bogus type accepted")
	}
}
