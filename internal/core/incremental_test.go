package core_test

import (
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/render"
	"visualinux/internal/vclstdlib"
)

// coldText extracts one figure with a completely fresh session over the
// kernel's raw target — the ground truth the incremental pipeline must
// match byte for byte.
func coldText(t *testing.T, k *kernelsim.Kernel, fig vclstdlib.Figure) string {
	t.Helper()
	return render.Text(coldGraph(t, k, fig))
}

// The repeated stop→mutate→resume cycle: every round's incremental output
// must be byte-identical to a cold extractor's view of the same state, the
// snapshot generation must be monotone, and the reuse counters must move
// the right way (everything reused on a quiet round, the touched figure
// re-extracted after a mutation).
func TestIncrementalRoundsMatchColdExtraction(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	o := obs.NewObserver()
	figs := vclstdlib.Figures()
	x := core.NewIncrementalExtractor(k, k.Target(), figs, o)

	mutate := []func() error{
		nil, // round 1: quiet — everything must be figure-level reused
		func() error { scribbleComm(k, 1); return nil },
		func() error { _, err := k.SpawnTask(9001, "incrtest", 1); return err },
		nil, // final quiet round: back to full reuse
	}

	if _, err := x.Round(); err != nil {
		t.Fatalf("cold round: %v", err)
	}
	lastGen := x.Snapshot().Generation()

	for round, m := range mutate {
		if m != nil {
			if err := m(); err != nil {
				t.Fatalf("round %d mutation: %v", round, err)
			}
		}
		x.Advance()
		if g := x.Snapshot().Generation(); g <= lastGen {
			t.Fatalf("round %d: generation not monotone (%d after %d)", round, g, lastGen)
		} else {
			lastGen = g
		}

		out, err := x.Round()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		reusedAll := true
		for i, rr := range out {
			if !rr.Reused {
				reusedAll = false
			}
			got := render.Text(rr.Res.Graph)
			if want := coldText(t, k, figs[i]); got != want {
				t.Errorf("round %d: figure %s diverged from cold extraction", round, figs[i].ID)
			}
		}
		if m == nil && !reusedAll {
			t.Errorf("round %d: quiet round re-extracted figures", round)
		}
		if m != nil && reusedAll {
			t.Errorf("round %d: mutation round reused every figure whole", round)
		}
	}

	snap := x.Snapshot()
	if o.SnapAdvances.Value() == 0 {
		t.Error("no advances counted")
	}
	if snap.Promotions() == 0 {
		t.Error("journal promoted nothing across quiet rounds")
	}
	hits, _ := snap.CacheStats()
	if hits == 0 {
		t.Error("no cache hits across rounds")
	}
	if o.FigureReuses.Value() == 0 {
		t.Error("observer counted no figure reuses")
	}
	if x.Rounds() != len(mutate)+1 {
		t.Errorf("Rounds() = %d, want %d", x.Rounds(), len(mutate)+1)
	}
}

// Pane versions track content: a reused figure keeps its pane version (the
// server's ETag then answers 304), a re-extracted figure whose graph comes
// out identical keeps its version and its graph, and only a re-extraction
// that changes what the pane shows bumps it.
func TestIncrementalPaneVersions(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	o := obs.NewObserver()
	figs := []vclstdlib.Figure{mustFigure(t, "3-6"), mustFigure(t, "7-1")}
	x := core.NewIncrementalExtractor(k, k.Target(), figs, o)

	out, err := x.Round()
	if err != nil {
		t.Fatalf("cold round: %v", err)
	}
	v0 := []int{out[0].Pane.Version, out[1].Pane.Version}
	g0 := out[0].Pane.Graph

	scribbleComm(k, 1)
	x.Advance()
	out, err = x.Round()
	if err != nil {
		t.Fatalf("steady round: %v", err)
	}
	// 3-6 is the PID table: it reads init's comm whole, so the byte past
	// the NUL changes what it read and it re-extracts, but the name it
	// shows is the same, so the pane keeps its version and its graph. 7-1
	// (the CFS runqueue) does not read init's comm.
	if out[0].Reused || out[0].Pane.Version != v0[0] || out[0].Pane.Graph != g0 || out[0].Res.Graph != g0 {
		t.Errorf("PID table after a comm scribble: reused=%v version %d→%d, graph kept %v, want re-extracted, same version and graph",
			out[0].Reused, v0[0], out[0].Pane.Version, out[0].Pane.Graph == g0)
	}
	if !out[1].Reused || out[1].Pane.Version != v0[1] {
		t.Errorf("runqueue after a comm scribble: reused=%v version %d→%d, want reused with stable version",
			out[1].Reused, v0[1], out[1].Pane.Version)
	}
	if o.FigureUnchanged.Value() != 1 {
		t.Errorf("FigureUnchanged = %d, want 1", o.FigureUnchanged.Value())
	}

	// Renaming a task changes a row the PID table shows. (A spawned task
	// would not: the simulator fills the pid IDR at build time only.)
	k.ByPID[1].SetStr("comm", "renamed")
	x.Advance()
	out, err = x.Round()
	if err != nil {
		t.Fatalf("rename round: %v", err)
	}
	if out[0].Reused || out[0].Pane.Version != v0[0]+1 || out[0].Pane.Graph == g0 {
		t.Errorf("PID table after a rename: reused=%v version %d→%d, want re-extracted with a bump",
			out[0].Reused, v0[0], out[0].Pane.Version)
	}
}

// TestSteadyRoundAllocs pins the zero-alloc steady state: an incremental
// extractor round over an unchanged target serves retained figures and must
// not allocate beyond trivial bookkeeping.
func TestSteadyRoundAllocs(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	x := core.NewIncrementalExtractor(k, k.Target(), []vclstdlib.Figure{mustFigure(t, "7-1")}, nil)
	for i := 0; i < 2; i++ { // cold round + warm-up
		if _, err := x.Round(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := x.Round(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("steady round allocates %.0f objects/op, want <= 16", allocs)
	}
}

// scribbleComm writes one byte past the NUL of pid's comm. Every figure that
// shows the task's name reads the 16-byte array whole, so the write changes
// bytes those figures read, but not the name they show.
func scribbleComm(k *kernelsim.Kernel, pid int) {
	k.Mem.Write(k.ByPID[pid].FieldAddr("comm")+15, []byte{'x'})
}

func mustFigure(t *testing.T, id string) vclstdlib.Figure {
	t.Helper()
	fig, ok := vclstdlib.FigureByID(id)
	if !ok {
		t.Fatalf("unknown figure %s", id)
	}
	return fig
}
