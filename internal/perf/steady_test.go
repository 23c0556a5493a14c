package perf

import (
	"testing"

	"visualinux/internal/kernelsim"
	"visualinux/internal/target"
)

// The acceptance bar for the incremental pipeline: after one small kernel
// mutation, re-extracting the whole workspace must cost at most 20% of the
// cold cached extraction on the modeled KGDB link — with the write journal
// (dirty-ranges fast path) and without it (hash revalidation fallback).
func TestSteadyStateFraction(t *testing.T) {
	for _, tc := range []struct {
		name           string
		withoutJournal bool
	}{
		{"journal", false},
		{"hash-fallback", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := MeasureSteadyState(kernelsim.Options{}, target.DefaultKGDB, tc.withoutJournal)
			if err != nil {
				t.Fatal(err)
			}
			if rep.ColdTotalMS <= 0 {
				t.Fatalf("cold round cost %v ms, want > 0", rep.ColdTotalMS)
			}
			if rep.SteadyFraction > 0.20 {
				t.Errorf("steady round = %.1f%% of cold (%.2f of %.2f ms), want <= 20%%",
					rep.SteadyFraction*100, rep.SteadyTotalMS, rep.ColdTotalMS)
			}
			if rep.FiguresReused == 0 {
				t.Error("no figure was served whole from the prior round")
			}
			if rep.FiguresReused >= rep.Figures {
				t.Error("the mutated figure should have re-extracted, but every figure was reused whole")
			}
			if rep.ReuseRatio < 0.9 {
				t.Errorf("box reuse ratio %.2f, want >= 0.9", rep.ReuseRatio)
			}
			if tc.withoutJournal && rep.Promotions != 0 {
				t.Errorf("journal disabled but %d pages were journal-promoted", rep.Promotions)
			}
			if !tc.withoutJournal && rep.Promotions == 0 {
				t.Error("journal enabled but no pages were promoted clean")
			}
		})
	}
}

// Determinism: two runs of the same personality must produce identical
// reports — the bench JSON is byte-stable because every cost is virtual.
func TestSteadyStateDeterministic(t *testing.T) {
	a, err := MeasureSteadyState(kernelsim.Options{}, target.DefaultKGDB, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MeasureSteadyState(kernelsim.Options{}, target.DefaultKGDB, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("row count differs: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Errorf("row %d differs:\n  %+v\n  %+v", i, a.Rows[i], b.Rows[i])
		}
	}
}
