package core_test

import (
	"bytes"
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/graph"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/render"
	"visualinux/internal/vclstdlib"
)

// stepLookRounds is the shape of the step_look benchmark (procs 5, churn
// 4, every stdlib figure, one workload step per stop), run for this many
// stops.
const stepLookRounds = 64

// coldGraph extracts one figure with a fresh session over the kernel's raw
// target: a graph no earlier round has touched.
func coldGraph(t *testing.T, k *kernelsim.Kernel, fig vclstdlib.Figure) *graph.Graph {
	t.Helper()
	p, err := core.NewSession(k.Target(), nil).VPlotFigure(fig.ID)
	if err != nil {
		t.Fatalf("cold extraction of %s: %v", fig.ID, err)
	}
	return p.Graph
}

// contentJSON is the graph's pane JSON with its stats zeroed: the bytes a
// client sees, minus how the graph was extracted. The graph is not
// modified.
func contentJSON(g *graph.Graph) []byte {
	c := *g
	c.Stats = graph.Stats{}
	return render.AppendJSON(nil, &c)
}

// Graph.Equal agrees with the serializer: over every stdlib figure across
// the step_look stops, two successive cold extractions are Equal exactly
// when their pane JSON, stats aside, is byte-identical. Both outcomes must
// occur, or the oracle proves nothing.
func TestGraphEqualMatchesJSON(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{Processes: 5, Churn: 4})
	w := kernelsim.NewWorkload(k)
	figs := vclstdlib.Figures()
	prev := make([]*graph.Graph, len(figs))
	for i, fig := range figs {
		prev[i] = coldGraph(t, k, fig)
	}
	var same, differ int
	for round := 0; round < stepLookRounds; round++ {
		w.Step()
		for i, fig := range figs {
			g := coldGraph(t, k, fig)
			eq, jsonEq := prev[i].Equal(g), bytes.Equal(contentJSON(prev[i]), contentJSON(g))
			if eq != jsonEq {
				t.Fatalf("round %d figure %s: Equal %v, JSON equal %v", round, fig.ID, eq, jsonEq)
			}
			if eq != g.Equal(prev[i]) {
				t.Fatalf("round %d figure %s: Equal is not symmetric", round, fig.ID)
			}
			if eq {
				same++
			} else {
				differ++
			}
			prev[i] = g
		}
	}
	t.Logf("%d pairs equal, %d differ", same, differ)
	if same == 0 || differ == 0 {
		t.Fatalf("oracle saw %d equal and %d differing pairs, want both", same, differ)
	}
}

// Comparing two extractions of the same content allocates nothing.
func TestGraphEqualAllocs(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{Processes: 5, Churn: 4})
	for _, fig := range vclstdlib.Figures() {
		a, b := coldGraph(t, k, fig), coldGraph(t, k, fig)
		if !a.Equal(b) {
			t.Fatalf("figure %s: two cold extractions of one state differ", fig.ID)
		}
		if allocs := testing.AllocsPerRun(20, func() { a.Equal(b) }); allocs != 0 {
			t.Errorf("figure %s: Equal allocates %.0f objects, want 0", fig.ID, allocs)
		}
	}
}

// Every pane the incremental pipeline shows — re-extracted, served whole,
// or kept because its re-extraction came out identical — serializes, stats
// aside, to the same JSON as a cold extraction of the same state, over the
// step_look stops. Unchanged re-extractions must occur, so the kept-graph
// path is the one under test.
func TestIncrementalPanesMatchColdJSON(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{Processes: 5, Churn: 4})
	w := kernelsim.NewWorkload(k)
	o := obs.NewObserver()
	figs := vclstdlib.Figures()
	x := core.NewIncrementalExtractor(k, k.Target(), figs, o)
	if _, err := x.Round(); err != nil {
		t.Fatalf("cold round: %v", err)
	}
	for round := 0; round < stepLookRounds; round++ {
		w.Step()
		x.Advance()
		out, err := x.Round()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i, rr := range out {
			if rr.Res.Graph != rr.Pane.Graph {
				t.Fatalf("round %d figure %s: result graph is not the displayed graph", round, figs[i].ID)
			}
			if got, want := contentJSON(rr.Pane.Graph), contentJSON(coldGraph(t, k, figs[i])); !bytes.Equal(got, want) {
				t.Fatalf("round %d figure %s: pane JSON diverged from cold extraction", round, figs[i].ID)
			}
		}
	}
	if o.FigureUnchanged.Value() == 0 {
		t.Fatal("no re-extraction kept its displayed graph")
	}
	t.Logf("reused %d, unchanged %d, extractions %d", o.FigureReuses.Value(), o.FigureUnchanged.Value(), o.Extractions.Value())
}
