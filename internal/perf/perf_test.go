package perf_test

import (
	"strings"
	"testing"

	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/perf"
	"visualinux/internal/target"
	"visualinux/internal/vclstdlib"
)

// TestTable4Shapes verifies §5.4's qualitative claims on the personality
// they describe: a plain KGDB stub with one round trip per field read.
func TestTable4Shapes(t *testing.T) {
	pairs, err := perf.Table4Uncached(kernelsim.Options{}, target.DefaultKGDB)
	if err != nil {
		t.Fatalf("table4: %v", err)
	}
	if len(pairs) != 20 {
		t.Fatalf("rows = %d, want 20", len(pairs))
	}
	for _, f := range perf.ShapeChecks(pairs) {
		t.Errorf("shape check failed: %s", f)
	}
	out := perf.Format(pairs)
	if !strings.Contains(out, "3-4") || !strings.Contains(out, "socketconn") {
		t.Errorf("formatted table incomplete:\n%s", out)
	}
	t.Logf("\n%s", out)
}

func TestLatencyDominates(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	fig := mustFigure(t, "3-4")
	slow, err := perf.MeasureFigureKGDB(k, fig, target.DefaultKGDB)
	if err != nil {
		t.Fatal(err)
	}
	// With a 5ms round trip, total must be at least reads * 5ms.
	if minMS := float64(slow.Reads) * 5.0; slow.TotalMS < minMS {
		t.Errorf("KGDB total %.1fms below latency floor %.1fms", slow.TotalMS, minMS)
	}
}

func TestPerObjectRatio(t *testing.T) {
	// Paper §5.4: "retrieving an object is approximately 50 times slower"
	// on KGDB. Our model should land in that order of magnitude (>= 20x).
	// Measured uncached: the paper's number is for a plain stub.
	k := kernelsim.Build(kernelsim.Options{})
	fig := mustFigure(t, "7-1")
	fast, err := perf.MeasureFigure(k, fig)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := perf.MeasureFigureKGDBUncached(k, fig, target.DefaultKGDB)
	if err != nil {
		t.Fatal(err)
	}
	if fast.PerObjMS <= 0 {
		t.Skip("fast path too fast to resolve; ratio unmeasurable")
	}
	ratio := slow.PerObjMS / fast.PerObjMS
	if ratio < 20 {
		t.Errorf("KGDB per-object only %.1fx slower", ratio)
	}
}

// TestSnapshotCacheSpeedup pins the point of the snapshot cache: on
// list-heavy figures the modeled KGDB cost must drop at least 2x versus
// the uncached baseline. Totals are virtual-clock dominated, so the bound
// is stable under -race wall-time inflation.
func TestSnapshotCacheSpeedup(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	for _, id := range []string{"3-6", "6-1", "8-2"} {
		fig := mustFigure(t, id)
		uncached, err := perf.MeasureFigureKGDBUncached(k, fig, target.DefaultKGDB)
		if err != nil {
			t.Fatal(err)
		}
		cached, err := perf.MeasureFigureKGDB(k, fig, target.DefaultKGDB)
		if err != nil {
			t.Fatal(err)
		}
		if cached.TotalMS*2 > uncached.TotalMS {
			t.Errorf("%s: cached %.1fms not 2x below uncached %.1fms",
				id, cached.TotalMS, uncached.TotalMS)
		}
		if cached.Reads >= uncached.Reads {
			t.Errorf("%s: cache did not reduce link transactions (%d vs %d)",
				id, cached.Reads, uncached.Reads)
		}
	}
}

type table4Row struct {
	Figure       string  `json:"figure"`
	Objects      int     `json:"objects"`
	BytesRead    uint64  `json:"bytes_read"`
	Transactions uint64  `json:"transactions"`
	LinkMS       float64 `json:"link_ms"`
}

// table4Ledger is the table4 section: the cached KGDB column's objects,
// transactions, bytes and modeled link time per figure, all exact. The
// extraction's wall time (cpu_ms) stays out of the ledger; it may add at
// most 25% + 50 ms to the row's link time, which the ledger pins, so the
// bound is against the committed link_ms.
func table4Ledger(t *testing.T) any {
	pairs, err := perf.Table4(kernelsim.Options{}, target.DefaultKGDB)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]table4Row, len(pairs))
	for i, p := range pairs {
		got := p.KGDB
		rows[i] = table4Row{p.FigureID, got.Objects, uint64(got.KBytes * 1024), got.Transactions, got.LinkMS}
		if limit := got.LinkMS*1.25 + 50; got.TotalMS > limit {
			t.Errorf("%s: kgdb %.1f ms, over link_ms %.1f ms + 25%% + 50 ms", p.FigureID, got.TotalMS, got.LinkMS)
		}
	}
	return rows
}

func mustFigure(t *testing.T, id string) vclstdlib.Figure {
	t.Helper()
	fig, ok := vclstdlib.FigureByID(id)
	if !ok {
		t.Fatalf("no figure %s", id)
	}
	return fig
}

// TestTracedLeafSpansAccountForKGDBTime is the observability acceptance
// check: on the modeled-KGDB personality, the trace's leaf target.read spans
// carry model_ns tags whose sum matches the row's reported extraction time
// within 5% (modeled link time dwarfs local evaluation time).
func TestTracedLeafSpansAccountForKGDBTime(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	o := obs.NewObserver()
	row, tr, err := perf.MeasureFigureKGDBTraced(k, mustFigure(t, "3-6"), target.DefaultKGDB, o)
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil {
		t.Fatal("no trace returned")
	}
	sumMS := float64(tr.SumTag("model_ns")) / 1e6
	if sumMS <= 0 {
		t.Fatalf("no model_ns on leaf spans:\n%s", tr.FormatTree())
	}
	if diff := (row.TotalMS - sumMS) / row.TotalMS; diff < 0 || diff > 0.05 {
		t.Fatalf("leaf span sum %.2f ms vs reported %.2f ms (diff %.1f%%)",
			sumMS, row.TotalMS, diff*100)
	}
	// Every leaf target.read span is a real link transaction.
	var reads uint64
	tr.Walk(func(e *obs.SpanExport) {
		if e.Name == "target.read" {
			reads++
		}
	})
	if reads != row.Transactions {
		t.Fatalf("trace has %d target.read spans, row reports %d transactions", reads, row.Transactions)
	}
}
