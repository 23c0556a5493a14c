// Steady-state personality: the incremental re-extraction experiment. One
// cold round extracts the full figure workspace over the modeled KGDB link;
// the kernel then performs one small mutation (init renames itself, as
// prctl(PR_SET_NAME) would: a row of the PID table and of the parenthood
// tree changes), the snapshot advances a generation, and a second round
// re-extracts everything through the incremental pipeline. The headline
// number is the steady round's link cost as a fraction of the cold round's —
// the price of staying live across stop events instead of re-pulling the
// world.
package perf

import (
	"time"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/target"
	"visualinux/internal/vclstdlib"
	"visualinux/internal/viewcl"
)

// SteadyRow is one figure's cold vs steady-state comparison. Costs are pure
// virtual link time (the latency model's clock), so rows are byte-stable
// across runs and machines.
type SteadyRow struct {
	FigureID string  `json:"figure"`
	Objects  int     `json:"objects"`
	ColdMS   float64 `json:"cold_kgdb_ms"`
	SteadyMS float64 `json:"steady_kgdb_ms"`
	// Reused reports whole-figure reuse: the steady round proved the
	// figure's read set untouched and returned the prior VPlot.
	Reused bool `json:"figure_reused"`
	// BoxReuses / BoxBuilds split the steady round's boxes (a reused
	// figure counts all its boxes as reuses).
	BoxReuses int `json:"box_reuses"`
	BoxBuilds int `json:"box_builds"`
}

// SteadyReport is the steady and steady_hash_only sections of LEDGER.json.
type SteadyReport struct {
	Rows []SteadyRow `json:"rows"` // per figure, plus a "_total" pseudo-row

	ColdTotalMS    float64 `json:"cold_total_ms"`
	SteadyTotalMS  float64 `json:"steady_total_ms"`
	SteadyFraction float64 `json:"steady_fraction"` // steady / cold
	ReuseRatio     float64 `json:"reuse_ratio"`     // steady-round boxes served without re-extraction
	FiguresReused  int     `json:"figures_reused"`
	Figures        int     `json:"figures"`

	// Snapshot-side accounting for the steady round.
	Revalidations  uint64 `json:"revalidations"`
	Promotions     uint64 `json:"promotions"`
	StaleRefetches uint64 `json:"stale_refetches"`
	SubpageFills   uint64 `json:"subpage_fills"`
}

// MeasureSteadyState runs the experiment: attach (cold extraction of every
// figure), apply one kernelsim mutation (renaming init's comm),
// stop, advance the snapshot generation, re-extract. The kernel's simulated
// target advertises both the write journal and content hashes, so this
// measures the best path; withoutJournal disables the journal poll and
// forces every stale page through hash revalidation — the graceful-fallback
// cost when the stub lacks the dirty-ranges annex.
func MeasureSteadyState(opts kernelsim.Options, model target.LatencyModel, withoutJournal bool) (*SteadyReport, error) {
	k := kernelsim.Build(opts)
	var base target.Target = target.WithLatency(k.Target(), model)
	lt := base.(*target.Latency)
	if withoutJournal {
		base = hashOnlyTarget{target.Layer{Target: base}}
	}
	figs := vclstdlib.Figures()
	x := core.NewIncrementalExtractor(k, base, figs, nil)

	rows := make([]SteadyRow, len(figs))
	last := lt.VirtualElapsed()
	perFigure := func(dst func(i int) *float64) {
		x.OnFigure = func(i int, fig vclstdlib.Figure, reused bool, res *viewcl.Result) {
			now := lt.VirtualElapsed()
			*dst(i) += ms(now - last)
			last = now
			rows[i].FigureID = fig.ID
			rows[i].Objects = res.Graph.Stats.Objects
			rows[i].Reused = reused
			if reused {
				rows[i].BoxReuses = len(res.Graph.Boxes)
				rows[i].BoxBuilds = 0
			} else {
				rows[i].BoxReuses = res.BoxesReused
				rows[i].BoxBuilds = res.BoxesBuilt
			}
		}
	}

	perFigure(func(i int) *float64 { return &rows[i].ColdMS })
	if _, err := x.Round(); err != nil {
		return nil, err
	}

	// One small mutation while the target "runs", then the stop boundary.
	k.ByPID[1].SetStr("comm", "renamed")
	x.Advance()

	last = lt.VirtualElapsed()
	perFigure(func(i int) *float64 { return &rows[i].SteadyMS })
	if _, err := x.Round(); err != nil {
		return nil, err
	}

	rep := &SteadyReport{Figures: len(figs)}
	var reuses, builds int
	total := SteadyRow{FigureID: "_total"}
	for _, r := range rows {
		rep.ColdTotalMS += r.ColdMS
		rep.SteadyTotalMS += r.SteadyMS
		if r.Reused {
			rep.FiguresReused++
		}
		reuses += r.BoxReuses
		builds += r.BoxBuilds
		total.Objects += r.Objects
		total.ColdMS += r.ColdMS
		total.SteadyMS += r.SteadyMS
		total.BoxReuses += r.BoxReuses
		total.BoxBuilds += r.BoxBuilds
	}
	rep.Rows = append(rows, total)
	if rep.ColdTotalMS > 0 {
		rep.SteadyFraction = rep.SteadyTotalMS / rep.ColdTotalMS
	}
	if reuses+builds > 0 {
		rep.ReuseRatio = float64(reuses) / float64(reuses+builds)
	}
	snap := x.Snapshot()
	rep.Revalidations = snap.Revalidations()
	rep.Promotions = snap.Promotions()
	rep.StaleRefetches = snap.StaleRefetches()
	rep.SubpageFills, _ = snap.SubpageFills()
	return rep, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// hashOnlyTarget refuses the DirtyTracker capability of the chain below,
// modeling a stub that never advertised the dirty-ranges annex; content
// hashes and everything else are still found below it.
type hashOnlyTarget struct {
	target.Layer
}

// DirtySince refuses DirtyTracker: no journal, so revalidation falls back
// to content hashes.
func (hashOnlyTarget) DirtySince(uint64) ([]target.Range, uint64, bool) { return nil, 0, false }

var _ target.DirtyTracker = hashOnlyTarget{}
