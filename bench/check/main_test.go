package main

import (
	"io"
	"testing"
)

// TestReportFailsOnMissingCell: an end-to-end cell of the base set that the
// change set no longer emits fails the gate; a per-layer one does not.
func TestReportFailsOnMissingCell(t *testing.T) {
	sp := &spec{EndToEnd: []bounded{{Name: "p90_ms", Better: "lower", Bound: 0.1}}}
	vals := []float64{10, 10.1, 9.9}
	a := map[key][]float64{{"w", "p90_ms"}: vals, {"w", "layer"}: vals}
	if report(io.Discard, sp, a, map[key][]float64{{"w", "p90_ms"}: vals}) {
		t.Error("a missing per-layer cell failed the gate")
	}
	if !report(io.Discard, sp, a, map[key][]float64{{"w", "layer"}: vals}) {
		t.Error("a missing end-to-end cell passed the gate")
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(values, n=4), which the acceptance rule uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, med, q3 := quartiles(tc.in)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", tc.in, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := bounded{Name: "p50_ms", Better: "lower", Bound: 0.1}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	for _, tc := range []struct {
		b    []float64
		want string
	}{
		{[]float64{10, 10.1, 9.9, 10.02, 10}, "agree"},
		{[]float64{12, 12.1, 11.9, 12, 12.05}, "worse"},
		{[]float64{8, 8.1, 7.9, 8, 8.05}, "better"},
		{[]float64{6, 14, 10, 8, 12}, "unresolved"},
	} {
		q1, am, q3 := quartiles(steady)
		b1, bm, b3 := quartiles(tc.b)
		got := verdict(lower, steady, tc.b, (bm-am)/am, spread(q1, am, q3), spread(b1, bm, b3))
		if got != tc.want {
			t.Errorf("verdict(%v) = %s, want %s", tc.b, got, tc.want)
		}
	}
}
