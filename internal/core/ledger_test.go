package core_test

import (
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/vclstdlib"
)

// The figure ledger: where every figure pass of the step_look shape goes
// over stepLookRounds stops. A pass is either served whole from the prior
// round (its pages are unchanged, or the bytes it read are) or re-extracted;
// a re-extraction either changes the pane or comes out Equal to the
// displayed graph. The kernel and workload are deterministic, so the counts
// are exact: a change that moves them moves how much work a stop costs.
func TestFigureLedger(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{Processes: 5, Churn: 4})
	w := kernelsim.NewWorkload(k)
	o := obs.NewObserver()
	figs := vclstdlib.Figures()
	x := core.NewIncrementalExtractor(k, k.Target(), figs, o)
	if _, err := x.Round(); err != nil {
		t.Fatalf("cold round: %v", err)
	}
	reused0, unchanged0 := o.FigureReuses.Value(), o.FigureUnchanged.Value()
	var passes, reextracted int
	for round := 0; round < stepLookRounds; round++ {
		w.Step()
		x.Advance()
		out, err := x.Round()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, rr := range out {
			passes++
			if !rr.Reused {
				reextracted++
			}
		}
	}
	reused := int(o.FigureReuses.Value() - reused0)
	unchanged := int(o.FigureUnchanged.Value() - unchanged0)
	t.Logf("%d passes: %d reused whole, %d re-extracted (%d to an Equal graph)", passes, reused, reextracted, unchanged)
	if passes != stepLookRounds*len(figs) || reused+reextracted != passes {
		t.Fatalf("ledger does not balance: %d passes, %d reused, %d re-extracted", passes, reused, reextracted)
	}
	if want := (ledger{reextracted: 104, reused: 1176, unchanged: 6}); (ledger{reextracted, reused, unchanged}) != want {
		t.Errorf("ledger = %+v, want %+v", ledger{reextracted, reused, unchanged}, want)
	}
}

type ledger struct{ reextracted, reused, unchanged int }
