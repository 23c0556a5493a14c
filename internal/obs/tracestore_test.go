package obs_test

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"visualinux/internal/obs"
)

func smallTrace(name string) *obs.SpanExport {
	return &obs.SpanExport{Name: name, DurUS: 100}
}

func TestTraceStoreBounds(t *testing.T) {
	ts := obs.NewTraceStore(3)
	for i := 1; i <= 5; i++ {
		ts.Record(1, "fig3-6", float64(i), smallTrace(fmt.Sprintf("round%d", i)))
	}
	hist := ts.History(1)
	if len(hist) != 3 || hist[0].DurMS != 3 || hist[2].DurMS != 5 {
		t.Fatalf("history = %+v, want rounds 3..5 oldest first", hist)
	}
	last, ok := ts.Last(1)
	if !ok || last.DurMS != 5 || last.Trace.Name != "round5" {
		t.Fatalf("last = %+v", last)
	}
	if last.Seq <= hist[0].Seq {
		t.Fatalf("seq not monotonic: last %d vs oldest %d", last.Seq, hist[0].Seq)
	}
}

func TestTraceStoreIsRecencyBasedNotSlowest(t *testing.T) {
	// Unlike Slowest, a fast round must replace visibility of a slow one:
	// "why is pane 1 slow?" is about the latest round, always.
	ts := obs.NewTraceStore(2)
	ts.Record(1, "fig3-6", 500, smallTrace("slow"))
	ts.Record(1, "fig3-6", 1, smallTrace("fast"))
	last, _ := ts.Last(1)
	if last.Trace.Name != "fast" {
		t.Fatalf("last = %q, want the most recent round regardless of duration", last.Trace.Name)
	}
}

func TestTraceStorePanesAndNilSafety(t *testing.T) {
	ts := obs.NewTraceStore(0) // default depth
	ts.Record(3, "fig7-1", 1, smallTrace("a"))
	ts.Record(1, "fig3-6", 1, smallTrace("b"))
	ts.Record(2, "fig4-5", 1, nil) // nil trace ignored
	if got := ts.Panes(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("panes = %v, want [1 3]", got)
	}
	if _, ok := ts.Last(2); ok {
		t.Fatal("nil trace must not be retained")
	}

	var nilStore *obs.TraceStore
	nilStore.Record(1, "x", 1, smallTrace("c"))
	if _, ok := nilStore.Last(1); ok {
		t.Fatal("nil store Last must report false")
	}
	if _, ok := nilStore.Latest(); ok {
		t.Fatal("nil store Latest must report false")
	}
	if nilStore.Panes() != nil || nilStore.History(1) != nil || nilStore.Slowest(1) != nil {
		t.Fatal("nil store accessors must be empty")
	}
}

// Pseudo-panes (negative IDs, such as the stream fan-out rounds) are
// retained and reachable through History, but are not extraction panes:
// Panes, Latest and Slowest skip them.
func TestTraceStorePseudoPanesExcluded(t *testing.T) {
	ts := obs.NewTraceStore(0)
	if _, ok := ts.Latest(); ok {
		t.Fatal("empty store reported a latest round")
	}
	ts.Record(2, "fig7-1", 2, smallTrace("pane2"))
	ts.Record(-1, "stream.fanout", 9, smallTrace("fanout"))
	if got := ts.Panes(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("panes = %v, want [2]", got)
	}
	if rec, ok := ts.Latest(); !ok || rec.Pane != 2 {
		t.Fatalf("latest = %+v, want pane 2 (the fan-out round is not an extraction)", rec)
	}
	if got := ts.Slowest(5); len(got) != 1 || got[0].Pane != 2 {
		t.Fatalf("slowest = %+v, want only pane 2", got)
	}
	if hist := ts.History(-1); len(hist) != 1 || hist[0].Trace.Name != "fanout" {
		t.Fatalf("fan-out history = %+v", hist)
	}
}

// Slowest admits each pane's worst round, slowest first, at most n.
func TestTraceStoreSlowestAdmission(t *testing.T) {
	ts := obs.NewTraceStore(0)
	for i, ms := range []float64{10, 30, 20, 5, 40} {
		ts.Record(i+1, "fig", ms, smallTrace(fmt.Sprint(i+1)))
	}
	got := ts.Slowest(3)
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	want := []int{5, 2, 3}
	for i, w := range want {
		if got[i].Pane != w {
			t.Fatalf("slowest = %+v, want panes %v", got, want)
		}
	}
	if got[0].DurMS != 40 {
		t.Fatalf("slowest = %v ms", got[0].DurMS)
	}
}

// One hot pane extracting slowly over and over holds a single row (its
// personal worst) and never evicts another pane's row and trace.
func TestTraceStoreSlowestHotPaneDoesNotEvictOthers(t *testing.T) {
	ts := obs.NewTraceStore(3)
	p1 := smallTrace("vplot:fig3-6")
	p2 := smallTrace("vplot:fig7-1")
	ts.Record(1, "fig3-6", 20, p1)
	ts.Record(2, "fig7-1", 15, p2)
	for i := 0; i < 10; i++ {
		ts.Record(1, "fig3-6", float64(30+i), p1)
	}

	got := ts.Slowest(2)
	if len(got) != 2 {
		t.Fatalf("len = %d, want one row per pane: %+v", len(got), got)
	}
	if got[0].Pane != 1 || got[0].DurMS != 39 {
		t.Fatalf("hot pane row = %+v, want its personal worst (39ms)", got[0])
	}
	if got[1].Pane != 2 || got[1].Trace != p2 {
		t.Fatalf("pane 2's row was evicted by pane 1's burst: %+v", got)
	}
}

// A faster repeat never downgrades a pane's row, even once the slow round
// has left the pane's recency ring.
func TestTraceStoreSlowestRepeatFasterRoundIgnored(t *testing.T) {
	ts := obs.NewTraceStore(2)
	ts.Record(1, "fig3-6", 50, smallTrace("slow"))
	for i := 0; i < 4; i++ {
		ts.Record(1, "fig3-6", 10, smallTrace("fast"))
	}
	got := ts.Slowest(3)
	if len(got) != 1 || got[0].DurMS != 50 || got[0].Trace.Name != "slow" {
		t.Fatalf("slowest = %+v, want the pane's worst retained", got)
	}
}

func TestTraceStoreSlowestKeepsTrace(t *testing.T) {
	tr := obs.NewTracer("root")
	tr.StartSpan("child").End()
	exp := tr.Finish().Export()
	ts := obs.NewTraceStore(0)
	ts.Record(1, "traced", 1000, exp)
	got := ts.Slowest(2)
	if len(got) != 1 || got[0].Trace == nil || got[0].Trace.Name != "root" {
		t.Fatalf("slowest = %+v", got)
	}
	// The rows are served as JSON by /debug/slowlog.
	if _, err := json.Marshal(got); err != nil {
		t.Fatal(err)
	}
}

func TestTraceStoreConcurrent(t *testing.T) {
	ts := obs.NewTraceStore(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ts.Record(g%3+1, "fig", float64(i), smallTrace("t"))
				ts.Last(g%3 + 1)
				ts.Latest()
				ts.History(g%3 + 1)
				ts.Panes()
				ts.Slowest(2)
			}
		}(g)
	}
	wg.Wait()
	for _, p := range ts.Panes() {
		if n := len(ts.History(p)); n != 4 {
			t.Fatalf("pane %d retained %d rounds, want 4", p, n)
		}
	}
}
