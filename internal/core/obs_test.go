package core_test

import (
	"bytes"
	"strings"
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/target"
)

// TestObservedSessionHitRatio runs a repeated-extraction workload over one
// observed session and asserts the snapshot cache's hit ratio climbs: the
// second extraction of the same figure touches pages the first one already
// pulled across the link.
func TestObservedSessionHitRatio(t *testing.T) {
	o := obs.NewObserver()
	k := kernelsim.Build(kernelsim.Options{})
	snap := target.NewObservedSnapshot(k.Target(), o)
	s := core.NewSession(snap, o)

	if _, err := s.VPlotFigure("7-1"); err != nil {
		t.Fatalf("first vplot: %v", err)
	}
	h1, m1 := snap.CacheStats()
	if m1 == 0 {
		t.Fatal("first extraction filled no pages")
	}
	if _, err := s.VPlotFigure("7-1"); err != nil {
		t.Fatalf("second vplot: %v", err)
	}
	h2, m2 := snap.CacheStats()
	if m2 != m1 {
		t.Fatalf("repeat extraction refetched pages: misses %d -> %d", m1, m2)
	}
	if h2 <= h1 {
		t.Fatalf("repeat extraction produced no cache hits: hits %d -> %d", h1, h2)
	}
	if r := float64(h2) / float64(h2+m2); r < 0.5 {
		t.Fatalf("hit ratio after repeat = %v, want >= 0.5", r)
	}

	// The same events must be visible through the shared registry.
	if o.SnapHits.Value() != h2 || o.SnapMisses.Value() != m2 {
		t.Fatalf("observer counters (%d hits, %d misses) diverge from snapshot (%d, %d)",
			o.SnapHits.Value(), o.SnapMisses.Value(), h2, m2)
	}
	var buf bytes.Buffer
	o.Registry.WritePrometheus(&buf)
	for _, want := range []string{"vl_snapshot_hit_ratio 0.", "vl_snapshot_page_hits_total", "vl_extractions_total 2"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("exposition missing %q:\n%s", want, buf.String())
		}
	}
}

// TestSnapshotInvalidations pins the invalidation counter satellite: every
// Invalidate is counted in the registry, and the next extraction refills
// from the link.
func TestSnapshotInvalidations(t *testing.T) {
	o := obs.NewObserver()
	k := kernelsim.Build(kernelsim.Options{})
	snap := target.NewObservedSnapshot(k.Target(), o)
	s := core.NewSession(snap, o)
	if _, err := s.VPlotFigure("7-1"); err != nil {
		t.Fatal(err)
	}
	_, m1 := snap.CacheStats()

	snap.Invalidate()
	snap.Invalidate()
	if got := o.SnapInvalidations.Value(); got != 2 {
		t.Fatalf("observer invalidations = %d, want 2", got)
	}

	if _, err := s.VPlotFigure("7-1"); err != nil {
		t.Fatal(err)
	}
	_, m2 := snap.CacheStats()
	if m2 <= m1 {
		t.Fatalf("post-invalidate extraction hit a supposedly empty cache (misses %d -> %d)", m1, m2)
	}
}

// TestVPlotTraceRecorded asserts the per-pane trace plumbing: a plot on an
// observed session leaves a span tree in the observer's trace store,
// reachable as the pane's last round, the latest round and a slowest row.
func TestVPlotTraceRecorded(t *testing.T) {
	o := obs.NewObserver()
	k := kernelsim.Build(kernelsim.Options{})
	s := core.NewSession(target.NewObservedSnapshot(k.Target(), o), o)
	p, err := s.VPlotFigure("7-1")
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := o.Traces.Last(p.ID)
	tr := rec.Trace
	if !ok || tr == nil {
		t.Fatalf("no trace for pane %d", p.ID)
	}
	if !strings.HasPrefix(tr.Name, "vplot:") {
		t.Fatalf("root span = %q", tr.Name)
	}
	var sawBox, sawRead bool
	tr.Walk(func(e *obs.SpanExport) {
		if strings.HasPrefix(e.Name, "box:") {
			sawBox = true
		}
		if e.Name == "target.read" {
			sawRead = true
		}
	})
	if !sawBox || !sawRead {
		t.Fatalf("trace lacks box/read spans (box=%v read=%v):\n%s", sawBox, sawRead, tr.FormatTree())
	}
	last, ok := o.Traces.Latest()
	if !ok || last.Pane != p.ID || last.Trace != tr {
		t.Fatalf("Latest = (%d, %p, %v), want (%d, %p, true)", last.Pane, last.Trace, ok, p.ID, tr)
	}
	if slow := o.Traces.Slowest(1); len(slow) != 1 || slow[0].Trace != tr {
		t.Fatalf("Slowest = %+v, want the traced extraction", slow)
	}
}

// TestPrefetchHintsOnStdlibFigures covers the prefetch satellite on the
// paper's list-heavy figures (3-6, 8-2): hints are issued per hop and never
// regress the fill count. The simulator's bump allocator packs elements
// densely, so a hop's element pages usually coincide with the pages its link
// word would fill anyway — the strict fills-drop guarantee (one coalesced
// fill per page-straddling element) is pinned deterministically by
// viewcl's TestPrefetchCoalescesStraddlingElements instead.
func TestPrefetchHintsOnStdlibFigures(t *testing.T) {
	run := func(hints bool, fig string) (fills uint64, hintCount uint64) {
		k := kernelsim.Build(kernelsim.Options{})
		o := obs.NewObserver()
		counted := target.WithStats(k.Target())
		s := core.NewSession(target.NewObservedSnapshot(counted, o), o)
		s.Interp.PrefetchHints = hints
		if _, err := s.VPlotFigure(fig); err != nil {
			t.Fatalf("vplot %s (hints=%v): %v", fig, hints, err)
		}
		return o.SnapFills.Value(), o.PrefetchHints.Value()
	}
	for _, fig := range []string{"3-6", "8-2"} {
		off, hOff := run(false, fig)
		on, hOn := run(true, fig)
		if hOff != 0 {
			t.Fatalf("%s: hints issued with hints disabled", fig)
		}
		if hOn == 0 {
			t.Fatalf("%s: no prefetch hints issued on a list-heavy figure", fig)
		}
		if on > off {
			t.Fatalf("%s: fill transactions regressed with hints: %d (on) vs %d (off)", fig, on, off)
		}
		t.Logf("%s: fill transactions %d -> %d with %d hints", fig, off, on, hOn)
	}
}
