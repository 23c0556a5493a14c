// Command perfbench regenerates the paper's Table 4: per-figure
// visualization overhead on the "GDB (QEMU)" (fast simulated) target and
// the "KGDB (rpi-400)" (latency-modeled) target, plus the qualitative
// shape checks of §5.4. The KGDB column is measured twice — with the
// paper-faithful uncached stub, and with the snapshot read cache the live
// session uses — so the table doubles as the cache's before/after report.
// The table's host-independent counts are pinned in LEDGER.json (table4
// section); `make ledger` rewrites it.
//
// Usage:
//
//	perfbench                    # virtual-clock KGDB accounting (fast)
//	perfbench -perread 5ms       # tune the modeled round-trip latency
//	perfbench -procs 10          # scale the workload population
//	perfbench -trace out.json    # also write a Chrome trace_event profile
//	                             # of every figure's cached-KGDB extraction
package main

import (
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

func main() {
	rsp := flag.Bool("rsp", false, "also measure extraction through a real GDB-RSP loopback socket")
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

	if *traceOut != "" {
		if err := writeTrace(*traceOut, opts, model); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s (load in chrome://tracing or https://ui.perfetto.dev)\n", *traceOut)
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
