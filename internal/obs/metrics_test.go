package obs_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"visualinux/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestCounterGaugeHistogram(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d", c.Value())
	}
	if again := r.Counter("c_total", "ignored"); again != c {
		t.Fatal("Counter not idempotent")
	}

	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v", g.Value())
	}

	h := r.Histogram("h_ms", "a histogram", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("hist count = %d", h.Count())
	}
	if h.Sum() != 555.5 {
		t.Fatalf("hist sum = %v", h.Sum())
	}
}

// TestPrometheusGolden pins the exposition format byte-for-byte: sorted
// base names, inline labels grouped under one TYPE header, cumulative
// buckets with le labels, _sum and _count.
func TestPrometheusGolden(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("vl_demo_reads_total", "demo reads").Add(41)
	r.Counter(`vl_demo_by_figure_total{figure="7-1"}`, "demo per-figure counter").Add(3)
	r.Counter(`vl_demo_by_figure_total{figure="3-6"}`, "demo per-figure counter").Add(5)
	r.Gauge("vl_demo_ratio", "demo ratio").Set(0.75)
	r.GaugeFunc("vl_demo_live", "demo live gauge", func() float64 { return 2 })
	h := r.Histogram(`vl_demo_duration_ms{stage="extract"}`, "demo stage latency", []float64{1, 10, 100})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(5000)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)

	golden := filepath.Join("testdata", "prometheus.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}

// TestConcurrentMetrics exercises the registry and its metrics from many
// goroutines; `go test -race` is the actual assertion.
func TestConcurrentMetrics(t *testing.T) {
	r := obs.NewRegistry()
	o := obs.NewObserver()
	trace := &obs.SpanExport{Name: "w"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("shared_total", "shared").Inc()
				r.Histogram("shared_ms", "shared", nil).Observe(float64(i))
				o.ObserveStage("extract", time.Millisecond)
				o.ObserveExtraction("7-1", time.Millisecond)
				o.Traces.Record(w%3+1, "7-1", float64(i), trace)
				o.Traces.Slowest(2)
				o.Traces.Latest()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total", "").Value(); got != 8*200 {
		t.Fatalf("shared counter = %d, want %d", got, 8*200)
	}
	if got := r.Histogram("shared_ms", "", nil).Count(); got != 8*200 {
		t.Fatalf("shared hist = %d, want %d", got, 8*200)
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	o.Registry.WritePrometheus(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty exposition")
	}
}

// The observer exports the unchanged-figure counter under its documented
// name and help text.
func TestObserverExportsFigureUnchanged(t *testing.T) {
	o := obs.NewObserver()
	o.FigureUnchanged.Add(3)
	var buf bytes.Buffer
	o.Registry.WritePrometheus(&buf)
	for _, want := range []string{
		"# HELP vl_extract_figure_unchanged_total figures re-extracted to a graph identical to the displayed one\n",
		"# TYPE vl_extract_figure_unchanged_total counter\n",
		"vl_extract_figure_unchanged_total 3\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}
