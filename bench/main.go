// Command bench is the repository's end-to-end benchmark. It starts the
// real Visualinux stack in-process (session manager, HTTP server on a
// loopback socket, gdbrsp stubs), drives it with one of four seeded
// workloads, checks every answer it gets back, and prints the workload's
// metrics as one JSON object on the last line of standard output.
//
//	bash bench/run.sh --workload step_look --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones declared in
// BENCHMARK.json; with --trace 1 they are the per-layer ones, and
// --chrome FILE also writes the traced phase as a Chrome trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A workload is one seeded traffic mix against a freshly set-up stack.
type workload struct {
	name string
	// prepare, when set, writes the input files and runs the checks that
	// every set-up shares. It runs once, before the timed set-ups.
	prepare func(e *env) error
	setup   func(e *env) (instance, error)
}

// workloads lists the benchmark's workloads; BENCHMARK.json records why
// each one exists.
var workloads = []workload{
	{"step_look", nil, setupStepLook},
	{"kgdb_attach", prepareKGDBAttach, setupKGDBAttach},
	{"fleet_mix", prepareFleetMix, setupFleetMix},
	{"viewql_refine", prepareViewQLRefine, setupViewQLRefine},
}

// instance is one set-up workload, ready to be driven.
type instance interface {
	// drive offers load until the deadline, recording every unit in rec.
	drive(deadline time.Time, rec *recorder)
	// counters adds the workload's cumulative layer counters to c.
	counters(c counters)
	close()
}

// validator is implemented by workloads whose load generator can itself
// fail to deliver the intended load; such a run is invalid.
type validator interface {
	validate(rec *recorder) error
}

// settler is implemented by workloads whose resident state drifts with
// the number of units run; settle returns it to its just-set-up shape so
// that the live heap measured after the timed phase does not depend on
// where the phase happened to stop.
type settler interface {
	settle() error
}

// env is what a workload's set-up receives.
type env struct {
	seed uint64
	tc   *tracing
	// dir is the absolute path of a scratch directory inside the working
	// directory, removed when the run ends.
	dir string
}

// config is one run of one workload.
type config struct {
	workload string
	seed     uint64
	measure  time.Duration // timed phase
	warmup   time.Duration // untimed phase before it
	// The workload is set up at least setups times and for at least
	// setupTime; setup_s is the median and the last instance is driven.
	setups    int
	setupTime time.Duration
	trace     bool
	chrome    string // Chrome trace output (traced runs only)
}

// Fixed run shape. Set-up time is a median over many set-ups, not one
// sample: a cheap set-up is repeated until setupBudget has passed.
const (
	warmupTime   = 2 * time.Second
	setupRepeats = 5
	setupBudget  = time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: exactly these four keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.IntVar(&seconds, "seconds", 25, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.chrome, "chrome", "", "with --trace 1, write the traced phase's spans to this Chrome trace file")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: need --seconds >= 1, --trace 0|1 and no positional arguments")
		os.Exit(2)
	}
	cfg.measure = time.Duration(seconds) * time.Second
	cfg.warmup = warmupTime
	cfg.setups = setupRepeats
	cfg.setupTime = setupBudget
	cfg.trace = trace == 1

	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// run sets the workload up, warms it up, measures it and returns the
// result. Human-readable notes go to out, prefixed with '#'.
func run(cfg config, out *os.File) (*result, error) {
	wl, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Absolute, because a core-session admission names its dump by path.
	if dir, err = filepath.Abs(dir); err != nil {
		return nil, err
	}
	e := &env{seed: cfg.seed, tc: &tracing{}, dir: dir}
	fmt.Fprintf(out, "# workload=%s seed=%d seconds=%g trace=%t\n", wl.name, cfg.seed, cfg.measure.Seconds(), cfg.trace)

	if wl.prepare != nil {
		if err := wl.prepare(e); err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
	}
	// Set up repeatedly from the same seed and keep the last instance: the
	// median set-up time is steady even though the first set-up also pays
	// for process-wide caches (kernel templates, compiled ViewCL). Each
	// set-up starts from a collected heap, so that collecting what the
	// previous instance left behind is not charged to it.
	var inst instance
	var setups []time.Duration
	for began := time.Now(); len(setups) < cfg.setups || time.Since(began) < cfg.setupTime; {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		inst, err = wl.setup(e)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(t0))
	}
	defer inst.close()
	setupS := median(setups).Seconds()
	fmt.Fprintf(out, "# setup_s=%.6f over %d set-ups\n", setupS, len(setups))

	warm := newRecorder(nil)
	inst.drive(time.Now().Add(cfg.warmup), warm)

	res := &result{Metrics: make(map[string]metric)}
	var rec *recorder
	var elapsed time.Duration
	if !cfg.trace {
		rec = newRecorder(nil)
		t0 := time.Now()
		inst.drive(t0.Add(cfg.measure), rec)
		elapsed = time.Since(t0)
		if st, ok := inst.(settler); ok {
			if err := st.settle(); err != nil {
				rec.done(0, fmt.Errorf("settle: %w", err))
			}
		}
		heapMB := liveHeapMB()
		p50, p90 := percentile(rec.units, 50), percentile(rec.units, 90)
		res.Metrics["setup_s"] = metric{setupS, "s"}
		res.Metrics["p50_ms"] = metric{ms(p50), "ms"}
		res.Metrics["p90_ms"] = metric{ms(p90), "ms"}
		res.Metrics["ops_per_s"] = metric{rec.rate(elapsed), "1/s"}
		res.Metrics["live_heap_mb"] = metric{heapMB, "MB"}
	} else {
		// The first half runs untraced and the second traced, so the
		// difference in mean unit latency between them is the tracing
		// overhead.
		half := cfg.measure / 2
		plain := newRecorder(nil)
		inst.drive(time.Now().Add(half), plain)

		rec = newRecorder(e.tc)
		before := snapshotCounters(inst)
		e.tc.start()
		t1 := time.Now()
		inst.drive(t1.Add(cfg.measure-half), rec)
		elapsed = time.Since(t1)
		e.tc.stop()
		after := snapshotCounters(inst)
		for name, m := range layerMetrics(after.minus(before), after, e.tc, rec, plain) {
			res.Metrics[name] = m
		}
		if cfg.chrome != "" {
			if err := e.tc.writeChrome(cfg.chrome); err != nil {
				return nil, err
			}
			fmt.Fprintf(out, "# chrome trace written to %s\n", cfg.chrome)
		}
		rec.attempted += plain.attempted
		rec.failed += plain.failed
		rec.errs = append(rec.errs, plain.errs...)
	}
	rec.attempted += warm.attempted
	rec.failed += warm.failed
	rec.errs = append(warm.errs, rec.errs...)

	res.Attempted, res.Failed = rec.attempted, rec.failed
	res.Correct = rec.failed == 0 && rec.attempted > 0
	if v, ok := inst.(validator); ok {
		if err := v.validate(rec); err != nil {
			res.Correct = false
			fmt.Fprintf(out, "# invalid run: %v\n", err)
		}
	}
	for _, err := range rec.errs {
		fmt.Fprintf(out, "# failure: %v\n", err)
	}
	rec.describe(out, elapsed)
	return res, nil
}

// liveHeapMB reports the heap still reachable after a full collection,
// with the workload's state resident.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile returns the nearest-rank p-th percentile of ds (0 when empty).
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

func median(ds []time.Duration) time.Duration { return percentile(ds, 50) }

// mismatch reports a unit whose answer was wrong rather than refused.
func mismatch(format string, args ...any) error {
	return fmt.Errorf("wrong answer: "+format, args...)
}
