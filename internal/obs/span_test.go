package obs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"visualinux/internal/obs"
)

func TestSpanTreeExport(t *testing.T) {
	tr := obs.NewTracer("vplot:test")
	plot := tr.StartSpan("plot:main")
	box := tr.StartSpan("box:Task")
	box.TagHex("addr", 0xffff8880)
	box.TagUint("reads", 7)
	box.End()
	read := tr.StartSpan("target.read")
	read.Tag("model_ns", "5000000")
	time.Sleep(time.Millisecond) // durations export in µs; make this span measurable
	read.End()
	plot.End()
	exp := tr.Finish().Export()

	if exp.Name != "vplot:test" {
		t.Fatalf("root name = %q", exp.Name)
	}
	if len(exp.Children) != 1 || exp.Children[0].Name != "plot:main" {
		t.Fatalf("unexpected children: %+v", exp.Children)
	}
	kids := exp.Children[0].Children
	if len(kids) != 2 || kids[0].Name != "box:Task" || kids[1].Name != "target.read" {
		t.Fatalf("unexpected grandchildren: %+v", kids)
	}
	if kids[0].Tags["addr"] != "0xffff8880" || kids[0].Tags["reads"] != "7" {
		t.Fatalf("tags = %v", kids[0].Tags)
	}
	if exp.SumTag("model_ns") != 5000000 {
		t.Fatalf("SumTag(model_ns) = %d", exp.SumTag("model_ns"))
	}
	if got := exp.SumLeaves("target.read"); got <= 0 {
		t.Fatalf("SumLeaves(target.read) = %d, want > 0", got)
	}

	// The export must round-trip as JSON (the /debug/trace payload).
	blob, err := json.Marshal(exp)
	if err != nil {
		t.Fatal(err)
	}
	var back obs.SpanExport
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != exp.Name || len(back.Children) != 1 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}

	tree := exp.FormatTree()
	for _, want := range []string{"vplot:test", "plot:main", "box:Task", "addr=0xffff8880"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("FormatTree missing %q:\n%s", want, tree)
		}
	}
}

func TestSpanStackUnwind(t *testing.T) {
	tr := obs.NewTracer("root")
	a := tr.StartSpan("a")
	b := tr.StartSpan("b")
	b.End()
	// After b ends, new spans should attach under a again.
	c := tr.StartSpan("c")
	c.End()
	a.End()
	exp := tr.Finish().Export()
	if len(exp.Children) != 1 {
		t.Fatalf("root children = %d, want 1", len(exp.Children))
	}
	got := make([]string, 0, 2)
	for _, k := range exp.Children[0].Children {
		got = append(got, k.Name)
	}
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("a's children = %v, want [b c]", got)
	}
}

func TestSpanBudgetDrops(t *testing.T) {
	tr := obs.NewTracer("root")
	tr.SetMaxSpans(4) // root + 3
	for i := 0; i < 10; i++ {
		sp := tr.StartSpan("s")
		sp.End()
	}
	if d := tr.Dropped(); d != 7 {
		t.Fatalf("Dropped = %d, want 7", d)
	}
	tr.Finish()
	exp := tr.Export() // Tracer.Export carries the drop count; Span.Export does not
	if exp.Dropped != 7 {
		t.Fatalf("export Dropped = %d, want 7", exp.Dropped)
	}
	if !strings.Contains(exp.FormatTree(), "7 spans dropped") {
		t.Fatalf("FormatTree does not surface drops:\n%s", exp.FormatTree())
	}
}

func TestStartChildConcurrent(t *testing.T) {
	tr := obs.NewTracer("root")
	parent := tr.StartSpan("fanout")
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			sp := parent.StartChild("worker")
			time.Sleep(time.Microsecond)
			sp.End()
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	parent.End()
	exp := tr.Finish().Export()
	if n := len(exp.Children[0].Children); n != 8 {
		t.Fatalf("fanout children = %d, want 8", n)
	}
}

func TestNilSafety(t *testing.T) {
	// Every one of these would panic if nil-safety regressed; the test is
	// that we reach the end.
	var tr *obs.Tracer
	sp := tr.StartSpan("x")
	sp.Tag("k", "v").TagUint("n", 1).TagHex("a", 2)
	sp.End()
	sp.StartChild("y").End()
	tr.SetMaxSpans(8)
	_ = tr.Dropped()
	_ = tr.Root()
	_ = tr.Finish()
	_ = tr.Export()

	var e *obs.SpanExport
	e.Walk(func(*obs.SpanExport) {})
	_ = e.SumLeaves("")
	_ = e.SumTag("x")
	_ = e.FormatTree()

	var c *obs.Counter
	c.Inc()
	c.Add(3)
	_ = c.Value()
	var g *obs.Gauge
	g.Set(1)
	_ = g.Value()
	var h *obs.Histogram
	h.Observe(1)
	_ = h.Count()
	_ = h.Sum()

	var r *obs.Registry
	_ = r.Counter("x", "")
	_ = r.Gauge("x", "")
	r.GaugeFunc("x", "", func() float64 { return 0 })
	_ = r.Histogram("x", "", nil)
	r.WritePrometheus(&bytes.Buffer{})

	var ts *obs.TraceStore
	ts.Record(1, "x", 1, &obs.SpanExport{})
	_, _ = ts.Latest()
	_ = ts.Slowest(1)

	var o *obs.Observer
	o.ObserveStage("extract", time.Second)
	o.ObserveExtraction("7-1", time.Second)
	_ = o.NewTrace("x")
	_ = o.FinishTrace(nil)
}

func TestContextPropagation(t *testing.T) {
	if got := obs.TracerFrom(context.Background()); got != nil {
		t.Fatalf("TracerFrom(empty) = %v", got)
	}
	// A span on an empty context is a nil no-op.
	obs.StartSpan(context.Background(), "x").End()

	tr := obs.NewTracer("root")
	ctx := obs.WithTracer(context.Background(), tr)
	if got := obs.TracerFrom(ctx); got != tr {
		t.Fatalf("TracerFrom = %v, want %v", got, tr)
	}
	obs.StartSpan(ctx, "child").End()
	exp := tr.Finish().Export()
	if len(exp.Children) != 1 || exp.Children[0].Name != "child" {
		t.Fatalf("children = %+v", exp.Children)
	}
}

func TestObserverFinishTraceRecordsDrops(t *testing.T) {
	o := obs.NewObserver()
	tr := o.NewTrace("root")
	tr.SetMaxSpans(2)
	for i := 0; i < 5; i++ {
		tr.StartSpan("s").End()
	}
	exp := o.FinishTrace(tr)
	if exp == nil || exp.Dropped != 4 {
		t.Fatalf("export = %+v, want Dropped=4", exp)
	}
	if got := o.TraceDrops.Value(); got != 4 {
		t.Fatalf("TraceDrops = %d, want 4", got)
	}
}

func TestChromeTrace(t *testing.T) {
	tr := obs.NewTracer("vplot:fig")
	sp := tr.StartSpan("box:Task")
	sp.Tag("addr", "0x1000")
	sp.End()
	exp := tr.Finish().Export()

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, exp, exp); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// Two roots x two spans each.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("events = %d, want 4", len(doc.TraceEvents))
	}
	tids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("phase = %q, want X", ev.Ph)
		}
		tids[ev.Tid] = true
	}
	if len(tids) != 2 {
		t.Fatalf("tids = %v, want one track per root", tids)
	}
}
