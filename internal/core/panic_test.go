package core

import (
	"errors"
	"strings"
	"testing"

	"visualinux/internal/obs"
	"visualinux/internal/vclstdlib"
	"visualinux/internal/viewcl"
)

// One tenant's round panics: that round and every later one return the
// recovered *TaskPanic, while a second tenant keeps running rounds.
func TestPanickingRoundQuarantinesTenant(t *testing.T) {
	m := NewSessionManager(ManagerOptions{}, obs.NewObserver())
	bad, err := m.Create("bad", tinySession())
	if err != nil {
		t.Fatal(err)
	}
	good, err := m.Create("good", tinySession())
	if err != nil {
		t.Fatal(err)
	}
	bad.Extractor.OnFigure = func(int, vclstdlib.Figure, bool, *viewcl.Result) { panic("injected") }

	_, err = bad.StepRound()
	var tp *TaskPanic
	if !errors.As(err, &tp) || tp.Value != "injected" {
		t.Fatalf("panicking round returned %v, want the recovered panic", err)
	}
	for _, round := range []func() ([]RoundResult, error){bad.Round, bad.StepRound} {
		var again *TaskPanic
		if _, err := round(); !errors.As(err, &again) || again != tp {
			t.Fatalf("quarantined session ran a round: %v", err)
		}
	}
	for i := 0; i < 2; i++ {
		if out, err := good.StepRound(); err != nil || len(out) != 1 {
			t.Fatalf("healthy tenant round %d: %d results, %v", i, len(out), err)
		}
	}
	if !m.Delete("bad") {
		t.Fatal("quarantined session not deletable")
	}
}

// A panic in one target of a fleet query is that target's error; the
// other targets answer.
func TestFleetTargetPanicContained(t *testing.T) {
	m := NewSessionManager(ManagerOptions{}, obs.NewObserver())
	f := admitFleet(t, m, []int{0, 1})
	broken, _ := m.Attach("s0")
	broken.Session.Tree = nil // queryOne dereferences the pane tree
	res, err := f.Query(FleetQuery{Figure: "7-1", Query: "tasks = SELECT task_struct FROM *"})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Targets[0]; got.Target != "s0" || !strings.Contains(got.Err, "task panicked") {
		t.Fatalf("panicking target: %+v", got)
	}
	if got := res.Targets[1]; got.Err != "" || got.Count == 0 {
		t.Fatalf("healthy target: %+v", got)
	}
}
