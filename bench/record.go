package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/viewcl"
)

// recorder collects one phase's outcomes. Safe for concurrent use.
type recorder struct {
	tc *tracing // nil outside the traced phase

	mu        sync.Mutex
	units     []time.Duration            // latency of every successful unit
	series    map[string][]time.Duration // named sub-operation latencies
	attempted int64
	failed    int64
	errs      []error       // the first few failures, for the report
	paused    time.Duration // time the load was stopped for re-set-up
}

const keepErrors = 5

func newRecorder(tc *tracing) *recorder {
	return &recorder{tc: tc, series: make(map[string][]time.Duration)}
}

// done records one unit. A failed unit counts as attempted and failed and
// contributes no latency.
func (r *recorder) done(d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < keepErrors {
			r.errs = append(r.errs, err)
		}
		return
	}
	r.units = append(r.units, d)
}

// sample records one latency of a named sub-operation.
func (r *recorder) sample(name string, d time.Duration) {
	r.mu.Lock()
	r.series[name] = append(r.series[name], d)
	r.mu.Unlock()
}

// pause records time the workload spent re-setting up between units;
// throughput excludes it.
func (r *recorder) pause(d time.Duration) {
	r.mu.Lock()
	r.paused += d
	r.mu.Unlock()
}

// rate is completed units per second of elapsed time not paused.
func (r *recorder) rate(elapsed time.Duration) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return float64(len(r.units)) / (elapsed - r.paused).Seconds()
}

// track opens a span track for one client goroutine (nil when untraced).
func (r *recorder) track(name string) *obs.Tracer {
	if r.tc == nil {
		return nil
	}
	return r.tc.track(name)
}

// describe prints the phase's latency series as '#' notes.
func (r *recorder) describe(out *os.File, elapsed time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := bufio.NewWriter(out)
	line := func(name string, ds []time.Duration) {
		fmt.Fprintf(w, "# %-9s n=%-6d p50_ms=%.4f p90_ms=%.4f p95_ms=%.4f p99_ms=%.4f\n", name, len(ds),
			ms(percentile(ds, 50)), ms(percentile(ds, 90)), ms(percentile(ds, 95)), ms(percentile(ds, 99)))
	}
	fmt.Fprintf(w, "# timed phase %.2fs, %d units attempted, %d failed\n", elapsed.Seconds(), r.attempted, r.failed)
	line("unit", r.units)
	names := make([]string, 0, len(r.series))
	for n := range r.series {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		line(n, r.series[n])
	}
	_ = w.Flush()
}

// closedLoop runs unit back to back on the calling goroutine until the
// deadline: one client that waits for each answer before asking again.
func closedLoop(deadline time.Time, rec *recorder, unit func(sp *obs.Span) error) {
	tr := rec.track("client")
	for time.Now().Before(deadline) {
		timeUnit(tr, rec, unit)
	}
}

// timeUnit runs and records one unit under a span of tr.
func timeUnit(tr *obs.Tracer, rec *recorder, unit func(sp *obs.Span) error) {
	sp := tr.Root().StartChild("unit")
	t0 := time.Now()
	err := unit(sp)
	d := time.Since(t0)
	sp.End()
	rec.tc.charge(clkUnit, d)
	rec.done(d, err)
}

// clock names one wall-time account the benchmark charges from its own
// spans around calls into a layer.
type clock int

const (
	clkUnit    clock = iota // units in flight: sent to answered, summed over clients
	clkHTTP                 // client round trips over the loopback socket
	clkHandler              // Server.ServeHTTP, streaming requests excluded
	clkRound                // direct IncrementalExtractor.Round calls
	clkExtract              // direct per-figure extraction (gaps between OnFigure callbacks)
	clkRSPRead              // reads crossing the gdbrsp link
	clkAttach               // direct gdbrsp Serve + Dial
	clkFork                 // direct kernelsim.FromTemplate calls
	clkStep                 // direct kernelsim Workload.Step calls
	numClocks
)

var clockNames = [numClocks]string{"unit_ms", "http_ms", "handler_ms", "round_ms", "extract_ms", "rsp_read_ms", "attach_ms", "fork_ms", "step_ms"}

// tracing is the traced phase's span and clock store. Spans stay in
// memory and are written out only when the run ends.
type tracing struct {
	on     atomic.Bool
	clocks [numClocks]atomic.Int64 // nanoseconds

	mu     sync.Mutex
	tracks []*obs.Tracer
}

// maxSpansPerTrack bounds a track's memory; spans past it are counted as
// dropped in the Chrome trace's root.
const maxSpansPerTrack = 1 << 16

func (t *tracing) start() { t.on.Store(true) }

func (t *tracing) stop() {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tr := range t.tracks {
		tr.Finish()
	}
}

func (t *tracing) track(name string) *obs.Tracer {
	tr := obs.NewTracer(name)
	tr.SetMaxSpans(maxSpansPerTrack)
	t.mu.Lock()
	t.tracks = append(t.tracks, tr)
	t.mu.Unlock()
	return tr
}

// charge adds d to clock c while tracing is on.
func (t *tracing) charge(c clock, d time.Duration) {
	if t != nil && t.on.Load() {
		t.clocks[c].Add(int64(d))
	}
}

// timed runs fn in a child span of parent and charges its wall time to c.
func (t *tracing) timed(parent *obs.Span, name string, c clock, fn func() error) error {
	if t == nil || !t.on.Load() {
		return fn()
	}
	sp := parent.StartChild(name)
	t0 := time.Now()
	err := fn()
	t.clocks[c].Add(int64(time.Since(t0)))
	sp.End()
	return err
}

func (t *tracing) writeChrome(path string) error {
	t.mu.Lock()
	roots := make([]*obs.SpanExport, len(t.tracks))
	for i, tr := range t.tracks {
		roots[i] = tr.Export()
	}
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, roots...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters is a snapshot of cumulative per-layer counts, by name.
type counters map[string]float64

func (c counters) minus(before counters) counters {
	out := make(counters, len(c))
	for k, v := range c {
		out[k] = v - before[k]
	}
	return out
}

// snapshotCounters reads the process-wide layer counters plus the
// workload's own.
func snapshotCounters(inst instance) counters {
	c := counters{}
	c["compiles"] = float64(viewcl.CompileCount())
	_, misses, _ := viewcl.ParseCacheStats()
	c["parse_misses"] = float64(misses)
	_, forks := kernelsim.TemplateStats()
	c["forks"] = float64(forks)
	st := kernelsim.SharedStore().Stats()
	c["cow_breaks"] = float64(st.CowBreaks)
	c["store_unique_bytes"] = float64(st.UniqueBytes)
	c["store_shared_bytes"] = float64(st.SharedBytes)
	inst.counters(c)
	return c
}

// layerMetrics derives the per-layer metrics of a traced phase from the
// counter deltas d, the counters at its end, the phase's clocks and its
// units; plain is the untraced phase before it. Shares are of the time
// units were in flight and nest: the server handler share contains the
// round share, which contains the extraction share.
func layerMetrics(d, end counters, tc *tracing, rec, plain *recorder) map[string]metric {
	for c := clock(0); c < numClocks; c++ {
		d[clockNames[c]] += float64(tc.clocks[c].Load()) / 1e6
	}
	wallMS := d["unit_ms"]
	units := float64(rec.attempted)
	meanTraced := totalMS(rec.units) / float64(len(rec.units))
	meanPlain := totalMS(plain.units) / float64(len(plain.units))
	stops := d["stops"]
	pct := func(v float64) float64 { return 100 * ratio(v, wallMS) }
	return map[string]metric{
		"http.self_pct":                   {pct(d["http_ms"] - d["handler_ms"]), "%"},
		"server.handler_pct":              {pct(d["handler_ms"]), "%"},
		"render.serialize_pct":            {pct(d["render_ms"]), "%"},
		"core.round_pct":                  {pct(d["round_ms"]), "%"},
		"viewcl.extract_pct":              {pct(d["extract_ms"]), "%"},
		"gdbrsp.read_pct":                 {pct(d["rsp_read_ms"]), "%"},
		"gdbrsp.attach_pct":               {pct(d["attach_ms"]), "%"},
		"kernelsim.fork_pct":              {pct(d["fork_ms"]), "%"},
		"kernelsim.step_pct":              {pct(d["step_ms"]), "%"},
		"core.figure_reuse_ratio":         {ratio(d["figure_reuses"], d["figures"]), "ratio"},
		"viewcl.box_reuse_ratio":          {ratio(d["box_reuses"], d["box_reuses"]+d["box_builds"]), "ratio"},
		"viewcl.compiles":                 {d["compiles"], "count"},
		"viewcl.parse_misses":             {d["parse_misses"], "count"},
		"target.hit_ratio":                {ratio(d["snap_hits"], d["snap_hits"]+d["snap_misses"]), "ratio"},
		"target.reads_per_op":             {ratio(d["target_reads"], units), "count"},
		"target.read_kb_per_op":           {ratio(d["target_bytes"]/1024, units), "KB"},
		"target.revalidations_per_stop":   {ratio(d["revalidations"], stops), "count"},
		"target.promotions_per_stop":      {ratio(d["promotions"], stops), "count"},
		"target.stale_refetches_per_stop": {ratio(d["stale_refetches"], stops), "count"},
		"target.zero_copy_fills_per_stop": {ratio(d["zero_copy"], stops), "count"},
		"gdbrsp.packets_per_op":           {ratio(d["packets"], units), "count"},
		"kernelsim.forks_per_op":          {ratio(d["forks"], units), "count"},
		"mem.cow_breaks_per_op":           {ratio(d["cow_breaks"], units), "count"},
		"mem.dedup_ratio":                 {ratio(end["store_shared_bytes"], end["store_unique_bytes"]), "ratio"},
		"mem.unique_mb":                   {end["store_unique_bytes"] / (1 << 20), "MB"},
		"server.not_modified_ratio":       {ratio(d["not_modified"], d["conditional_gets"]), "ratio"},
		"server.kb_per_op":                {ratio(d["resp_bytes"]/1024, units), "KB"},
		"stream.frames_per_round":         {ratio(d["frames"], d["push_rounds"]), "count"},
		"gen.late_pct":                    {latePct(rec.series["late"]), "%"},
		"trace.overhead_pct":              {100 * (ratio(meanTraced, meanPlain) - 1), "%"},
	}
}

// latePct is the share of sends the open-loop pacer made later than
// lateLimit (0 for closed loops, which have no pacer).
func latePct(late []time.Duration) float64 {
	n := 0
	for _, d := range late {
		if d > lateLimit {
			n++
		}
	}
	return 100 * ratio(float64(n), float64(len(late)))
}

func totalMS(ds []time.Duration) float64 {
	var sum float64
	for _, d := range ds {
		sum += ms(d)
	}
	return sum
}

// ratio is a/b, or 0 when b is 0 (nothing of the kind happened).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
