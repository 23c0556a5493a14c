// Command perfbench regenerates the paper's Table 4: per-figure
// visualization overhead on the "GDB (QEMU)" (fast simulated) target and
// the "KGDB (rpi-400)" (latency-modeled) target, plus the qualitative
// shape checks of §5.4. The KGDB column is measured twice — with the
// paper-faithful uncached stub, and with the snapshot read cache the live
// session uses — so the table doubles as the cache's before/after report.
//
// Usage:
//
//	perfbench                    # virtual-clock KGDB accounting (fast)
//	perfbench -perread 5ms       # tune the modeled round-trip latency
//	perfbench -procs 10          # scale the workload population
//	perfbench -json BENCH_1.json # also write per-figure results as JSON
//	perfbench -steadyjson BENCH_4.json
//	                             # also run the steady-state incremental
//	                             # personality — attach, extract all figures,
//	                             # one Dirty-Pipe mutation, stop, re-extract —
//	                             # and write the cold-vs-steady report as JSON
//	perfbench -trace out.json    # also write a Chrome trace_event profile
//	                             # of every figure's cached-KGDB extraction
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/perf"
	"visualinux/internal/target"
	"visualinux/internal/vclstdlib"
)

// benchRecord is one BENCH_1.json entry: the same figure across the
// target personalities, with the raw traffic counters behind the costs.
type benchRecord struct {
	Figure         string  `json:"figure"`
	Objects        int     `json:"objects"`
	GDBNsOp        int64   `json:"gdb_ns_op"`
	BytesRead      uint64  `json:"bytes_read"`
	Transactions   uint64  `json:"transactions"`
	KGDBMs         float64 `json:"kgdb_ms"`
	LinkMs         float64 `json:"link_ms"` // modeled share of kgdb_ms (exact)
	CPUMs          float64 `json:"cpu_ms"`  // wall share of kgdb_ms
	KGDBUncachedMs float64 `json:"kgdb_uncached_ms"`
	CacheSpeedup   float64 `json:"cache_speedup"`
}

func main() {
	rsp := flag.Bool("rsp", false, "also measure extraction through a real GDB-RSP loopback socket")
	jsonOut := flag.String("json", "", "write per-figure results to this JSON file (e.g. BENCH_1.json)")
	steadyJSONOut := flag.String("steadyjson", "", "write the steady-state incremental re-extraction report to this JSON file (e.g. BENCH_4.json)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event file of every figure's cached-KGDB extraction (open in chrome://tracing or Perfetto)")
	perRead := flag.Duration("perread", 5*time.Millisecond, "modeled KGDB round-trip per read")
	perByte := flag.Duration("perbyte", 2*time.Microsecond, "modeled KGDB cost per byte")
	perCont := flag.Duration("percont", 50*time.Microsecond, "modeled cost per continuation packet of an open transfer")
	procs := flag.Int("procs", 0, "workload processes (0 = paper default of 5)")
	churn := flag.Int("churn", 0, "age the state through N live-transition rounds before measuring")
	flag.Parse()

	model := target.LatencyModel{PerRead: *perRead, PerByte: *perByte, PerContinuation: *perCont,
		PerHashCheck: target.DefaultKGDB.PerHashCheck}
	opts := kernelsim.Options{Processes: *procs, Churn: *churn}

	uncached, err := perf.Table4Uncached(opts, model)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(perf.Format(uncached))

	cached, err := perf.Table4(opts, model)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("\nExtra: KGDB behind the snapshot read cache (one fetch per 1 KiB window per stop):")
	fmt.Printf("%-12s | %12s %12s %8s | %6s %6s\n",
		"figure", "uncached(ms)", "cached(ms)", "speedup", "txns", "was")
	for i, p := range cached {
		u := uncached[i]
		speedup := 0.0
		if p.KGDB.TotalMS > 0 {
			speedup = u.KGDB.TotalMS / p.KGDB.TotalMS
		}
		fmt.Printf("%-12s | %12.1f %12.1f %7.1fx | %6d %6d\n",
			p.FigureID, u.KGDB.TotalMS, p.KGDB.TotalMS, speedup,
			p.KGDB.Transactions, u.KGDB.Transactions)
	}

	if *rsp {
		rows, err := perf.Table4RSP(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: rsp: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(perf.FormatRows("Extra: extraction through a real GDB-RSP loopback socket", rows))
	}

	if *steadyJSONOut != "" {
		// The incremental personality: one generation-tagged snapshot, one
		// cold round, one Dirty-Pipe mutation, one steady round. Costs are
		// pure virtual link time, so the file is byte-stable across runs.
		steadyModel := target.LatencyModel{PerRead: *perRead, PerByte: *perByte, PerContinuation: *perCont, PerHashCheck: target.DefaultKGDB.PerHashCheck}
		rep, err := perf.MeasureSteadyState(opts, steadyModel, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: steadyjson: %v\n", err)
			os.Exit(1)
		}
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: steadyjson: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*steadyJSONOut, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: steadyjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nSteady-state incremental re-extraction (one Dirty-Pipe mutation between rounds):\n")
		fmt.Printf("%-12s | %10s %10s | %6s %6s %6s\n",
			"figure", "cold(ms)", "steady(ms)", "reused", "boxes+", "boxes=")
		for _, r := range rep.Rows {
			fmt.Printf("%-12s | %10.1f %10.1f | %6v %6d %6d\n",
				r.FigureID, r.ColdMS, r.SteadyMS, r.Reused, r.BoxBuilds, r.BoxReuses)
		}
		fmt.Printf("steady round = %.1f%% of cold; box reuse ratio %.2f; %d/%d figures served whole\n",
			rep.SteadyFraction*100, rep.ReuseRatio, rep.FiguresReused, rep.Figures)
		fmt.Printf("wrote %s\n", *steadyJSONOut)
	}

	if *traceOut != "" {
		if err := writeTrace(*traceOut, opts, model); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s (load in chrome://tracing or https://ui.perfetto.dev)\n", *traceOut)
	}

	if *jsonOut != "" {
		recs := make([]benchRecord, len(cached))
		for i, p := range cached {
			u := uncached[i]
			speedup := 0.0
			if p.KGDB.TotalMS > 0 {
				speedup = u.KGDB.TotalMS / p.KGDB.TotalMS
			}
			recs[i] = benchRecord{
				Figure:         p.FigureID,
				Objects:        p.GDB.Objects,
				GDBNsOp:        int64(p.GDB.TotalMS * 1e6),
				BytesRead:      uint64(p.KGDB.KBytes * 1024),
				Transactions:   p.KGDB.Transactions,
				KGDBMs:         p.KGDB.TotalMS,
				LinkMs:         p.KGDB.LinkMS,
				CPUMs:          p.KGDB.CPUMS,
				KGDBUncachedMs: u.KGDB.TotalMS,
				CacheSpeedup:   speedup,
			}
		}
		blob, err := json.MarshalIndent(recs, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: json: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonOut, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: json: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *jsonOut)
	}

	fmt.Println("\nShape checks (paper §5.4 qualitative claims, uncached stub):")
	runShapeChecks(uncached)
}

// writeTrace re-measures every figure on the cached-KGDB personality with
// the obs tap inserted under the snapshot, then emits all span trees as one
// Chrome trace_event file (one track per figure).
func writeTrace(path string, opts kernelsim.Options, model target.LatencyModel) error {
	k := kernelsim.Build(opts)
	o := obs.NewObserver()
	var roots []*obs.SpanExport
	for _, fig := range vclstdlib.Figures() {
		_, tr, err := perf.MeasureFigureKGDBTraced(k, fig, model, o)
		if err != nil {
			return fmt.Errorf("figure %s: %w", fig.ID, err)
		}
		if tr != nil {
			roots = append(roots, tr)
		}
	}
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

func runShapeChecks(uncached []perf.Pair) {
	fails := perf.ShapeChecks(uncached)
	if len(fails) == 0 {
		fmt.Println("  all hold: KGDB >=10x slower everywhere; cost ranks with read count;")
		fmt.Println("  small figures remain interactive on KGDB.")
	} else {
		for _, f := range fails {
			fmt.Println("  FAIL:", f)
		}
		os.Exit(1)
	}
}
