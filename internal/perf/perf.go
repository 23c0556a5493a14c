// Package perf implements the paper's Table 4 experiment: for every ULK
// figure, measure the cost of the ViewCL extraction step (the paper notes
// ViewQL and front-end rendering are negligible) on the two target
// personalities:
//
//   - "GDB (QEMU)": the raw simulated target — memory reads cost local work
//     only, like GDB attached to a localhost QEMU gdbstub;
//   - "KGDB (rpi-400)": the same image behind a latency model charging the
//     paper's measured ~5ms per read transaction, accounted on a virtual
//     clock so the whole sweep stays runnable.
//
// Reported columns mirror the paper: total cost (ms), cost per object (ms),
// and cost per KB of transferred data structure (ms).
package perf

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/target"
	"visualinux/internal/vclstdlib"
)

// Row is one measurement of one figure on one target.
type Row struct {
	FigureID     string
	Objects      int
	Reads        uint64 // read requests that reached the (modeled) link
	Transactions uint64 // link round trips (>= Reads when requests split)
	KBytes       float64
	TotalMS      float64 // extraction cost: LinkMS + CPUMS
	LinkMS       float64 // modeled link time (virtual clock; deterministic)
	CPUMS        float64 // wall time of the extraction itself
	PerObjMS     float64
	PerKBMS      float64
}

// Pair is the Table 4 row: the same figure on both targets.
type Pair struct {
	FigureID string
	GDB      Row // "GDB (QEMU)"
	KGDB     Row // "KGDB (rpi-400)"
}

// MeasureFigure extracts one figure on the kernel's fast target and returns
// the row. The kernel target is wrapped with an isolated Stats view so
// concurrent measurements never race on diffing one shared counter.
func MeasureFigure(k *kernelsim.Kernel, fig vclstdlib.Figure) (Row, error) {
	s := core.NewSession(target.WithStats(k.Target()), nil)
	t0 := time.Now()
	p, err := s.VPlot(fig.ID, fig.Program)
	if err != nil {
		return Row{}, err
	}
	return makeRow(fig.ID, p.Graph.Stats.Objects, p.Graph.Stats.Reads, p.Graph.Stats.Reads,
		p.Graph.Stats.Bytes, time.Since(t0), 0), nil
}

// MeasureFigureKGDB extracts one figure through the latency model with the
// snapshot read cache layered on top, the way a live session runs: the
// machine is stopped, so every page crosses the serial link at most once and
// repeat field reads are free. The cost is the virtual latency the model
// accumulated (LinkMS) plus the extraction's wall time (CPUMS) — i.e. what
// a real KGDB session would have waited. Reads/KBytes report link-level
// traffic (what the cache could not absorb), which is what the latency model
// charges for.
func MeasureFigureKGDB(k *kernelsim.Kernel, fig vclstdlib.Figure, model target.LatencyModel) (Row, error) {
	lt := target.WithLatency(k.Target(), model)
	return measureKGDB(fig, lt, target.NewSnapshot(lt), nil)
}

// MeasureFigureKGDBTraced is MeasureFigureKGDB with the obs tap inserted
// between the latency model and the snapshot cache, so every span on the
// returned trace is a transaction that really crossed the modeled link
// (cache hits never reach it). The trace's target.read leaves carry
// model_ns tags summing to the modeled KGDB wait. o must be non-nil.
func MeasureFigureKGDBTraced(k *kernelsim.Kernel, fig vclstdlib.Figure, model target.LatencyModel, o *obs.Observer) (Row, *obs.SpanExport, error) {
	lt := target.WithLatency(k.Target(), model)
	snap := target.NewObservedSnapshot(lt, o, obs.Tag{Key: "figure", Value: fig.ID})
	row, err := measureKGDB(fig, lt, snap, o)
	if err != nil {
		return Row{}, nil, err
	}
	rec, _ := o.Traces.Latest()
	return row, rec.Trace, nil
}

// MeasureFigureKGDBUncached is MeasureFigureKGDB without the snapshot cache:
// every field read is its own modeled round trip. It exists as the baseline
// the cached path is compared against (BenchmarkTable4KGDBUncached).
func MeasureFigureKGDBUncached(k *kernelsim.Kernel, fig vclstdlib.Figure, model target.LatencyModel) (Row, error) {
	lt := target.WithLatency(k.Target(), model)
	return measureKGDB(fig, lt, lt, nil)
}

// measureKGDB plots fig over top, a chain whose link is lt, observed by o
// (nil for none), and prices the run from lt's counters and clock.
func measureKGDB(fig vclstdlib.Figure, lt *target.Latency, top target.Target, o *obs.Observer) (Row, error) {
	s := core.NewSession(top, o)
	t0 := time.Now()
	p, err := s.VPlot(fig.ID, fig.Program)
	if err != nil {
		return Row{}, err
	}
	wall := time.Since(t0)
	reads, bytes, txns := lt.Stats().Totals()
	return makeRow(fig.ID, p.Graph.Stats.Objects, reads, txns, bytes, wall, lt.VirtualElapsed()), nil
}

func makeRow(id string, objects int, reads, txns, bytes uint64, wall, link time.Duration) Row {
	r := Row{
		FigureID:     id,
		Objects:      objects,
		Reads:        reads,
		Transactions: txns,
		KBytes:       float64(bytes) / 1024,
		LinkMS:       ms(link),
		CPUMS:        ms(wall),
	}
	r.TotalMS = r.LinkMS + r.CPUMS
	if objects > 0 {
		r.PerObjMS = r.TotalMS / float64(objects)
	}
	if r.KBytes > 0 {
		r.PerKBMS = r.TotalMS / r.KBytes
	}
	return r
}

// Table4 measures every Table 2 figure on both targets, with the KGDB
// personality running behind the snapshot cache the way a live session
// does. A fresh session is used per figure (no caching across plots), like
// the paper's methodology of measuring each plot's extraction
// independently. Figures are measured concurrently by a bounded worker
// pool: each worker gets its own stats view and latency clock over the
// shared read-only kernel image, so the measurements are independent even
// though the memory is shared.
func Table4(opts kernelsim.Options, model target.LatencyModel) ([]Pair, error) {
	return table4(opts, model, MeasureFigureKGDB)
}

// Table4Uncached is Table 4 with the paper-faithful KGDB personality: no
// snapshot cache, one modeled round trip per field read. This is the
// configuration §5.4's numbers describe, and what ShapeChecks verifies.
func Table4Uncached(opts kernelsim.Options, model target.LatencyModel) ([]Pair, error) {
	return table4(opts, model, MeasureFigureKGDBUncached)
}

func table4(opts kernelsim.Options, model target.LatencyModel,
	kgdb func(*kernelsim.Kernel, vclstdlib.Figure, target.LatencyModel) (Row, error)) ([]Pair, error) {
	k := kernelsim.Build(opts)
	figs := vclstdlib.Figures()
	pairs := make([]Pair, len(figs))
	errs := make([]error, len(figs))

	workers := runtime.GOMAXPROCS(0)
	if workers > len(figs) {
		workers = len(figs)
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, fig := range figs {
		wg.Add(1)
		go func(i int, fig vclstdlib.Figure) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			fast, err := MeasureFigure(k, fig)
			if err != nil {
				errs[i] = fmt.Errorf("figure %s (fast): %w", fig.ID, err)
				return
			}
			slow, err := kgdb(k, fig, model)
			if err != nil {
				errs[i] = fmt.Errorf("figure %s (kgdb): %w", fig.ID, err)
				return
			}
			pairs[i] = Pair{FigureID: fig.ID, GDB: fast, KGDB: slow}
		}(i, fig)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pairs, nil
}

// Format renders the pairs as the paper's Table 4 layout.
func Format(pairs []Pair) string {
	var sb strings.Builder
	sb.WriteString("Table 4: visualization overhead per figure\n")
	sb.WriteString(fmt.Sprintf("%-12s | %8s %8s %8s | %10s %10s %8s %8s %8s | %6s %7s\n",
		"figure", "gdb(ms)", "/obj", "/KB", "kgdb(ms)", "link(ms)", "cpu(ms)", "/obj", "/KB", "objs", "KB"))
	sb.WriteString(strings.Repeat("-", 116) + "\n")
	for _, p := range pairs {
		sb.WriteString(fmt.Sprintf("%-12s | %8.2f %8.3f %8.3f | %10.1f %10.1f %8.2f %8.2f %8.1f | %6d %7.1f\n",
			p.FigureID,
			p.GDB.TotalMS, p.GDB.PerObjMS, p.GDB.PerKBMS,
			p.KGDB.TotalMS, p.KGDB.LinkMS, p.KGDB.CPUMS, p.KGDB.PerObjMS, p.KGDB.PerKBMS,
			p.GDB.Objects, p.GDB.KBytes))
	}
	return sb.String()
}

// ShapeChecks verifies the qualitative claims of the paper's §5.4 against
// measured pairs, returning human-readable failures (empty = all hold):
//
//  1. KGDB is dramatically slower than GDB-QEMU for every figure;
//  2. per-object cost on KGDB is orders of magnitude above GDB's;
//  3. figure cost ranks roughly with read-transaction count (the
//     C-expression evaluation bottleneck);
//  4. small figures stay interactive even on KGDB (the paper's "acceptable
//     if we focus on smaller data structures").
func ShapeChecks(pairs []Pair) []string {
	var fails []string
	var smallOK bool
	for _, p := range pairs {
		if p.KGDB.TotalMS < p.GDB.TotalMS*10 {
			fails = append(fails, fmt.Sprintf("%s: KGDB (%.1fms) not >=10x GDB (%.1fms)",
				p.FigureID, p.KGDB.TotalMS, p.GDB.TotalMS))
		}
		if p.GDB.Objects != p.KGDB.Objects {
			fails = append(fails, fmt.Sprintf("%s: object counts differ (%d vs %d)",
				p.FigureID, p.GDB.Objects, p.KGDB.Objects))
		}
		if p.KGDB.TotalMS < 2000 && p.GDB.Objects > 0 {
			smallOK = true
		}
	}
	if !smallOK {
		fails = append(fails, "no figure stays under 2s on KGDB — small-structure interactivity lost")
	}
	// Rank correlation between reads and KGDB totals (claim 3).
	if tau := rankCorrelation(pairs); tau < 0.7 {
		fails = append(fails, fmt.Sprintf("KGDB cost poorly ranked by read count (tau=%.2f)", tau))
	}
	return fails
}

// rankCorrelation computes Kendall's tau between read counts and KGDB cost.
func rankCorrelation(pairs []Pair) float64 {
	type pt struct{ reads, ms float64 }
	pts := make([]pt, len(pairs))
	for i, p := range pairs {
		pts[i] = pt{float64(p.KGDB.Reads), p.KGDB.TotalMS}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].reads < pts[j].reads })
	concordant, discordant := 0, 0
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			switch {
			case pts[i].ms < pts[j].ms:
				concordant++
			case pts[i].ms > pts[j].ms:
				discordant++
			}
		}
	}
	total := concordant + discordant
	if total == 0 {
		return 1
	}
	return float64(concordant-discordant) / float64(total)
}
