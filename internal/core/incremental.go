package core

import (
	"errors"
	"fmt"

	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/panes"
	"visualinux/internal/target"
	"visualinux/internal/vclstdlib"
	"visualinux/internal/viewcl"
)

// IncrementalExtractor is the end-to-end incremental pipeline: one
// generation-tagged snapshot shared by every figure, one persistent
// interpreter + cross-run memo per figure, and the prior round's results
// for figure-level delta. The steady-state loop is
//
//	x.Round()            // cold: extract everything, attach panes
//	... target resumes, mutates, stops ...
//	x.Advance()          // pages go stale (not gone); journal promotes clean ones
//	x.Round()            // delta: untouched figures return their prior VPlot,
//	                     // touched figures re-extract only dirty-overlapping boxes
//
// A figure counts as untouched when the bytes it read are unchanged, even
// if the pages holding them were written (see Round).
//
// Rounds run figures sequentially: the memo and snapshot accounting stay
// deterministic, and steady-state rounds are dominated by link revalidation,
// not CPU, so worker fan-out buys nothing once the cache is warm.
type IncrementalExtractor struct {
	Session *Session
	// OnFigure, when set, fires after each figure's pass in a round —
	// reused tells whether the figure was served whole from the prior
	// round. The bench harness uses it to clock per-figure link cost.
	OnFigure func(i int, fig vclstdlib.Figure, reused bool, res *viewcl.Result)

	snap   *target.Snapshot
	o      *obs.Observer
	states []*figState
	rounds int
}

type figState struct {
	fig    vclstdlib.Figure
	interp *viewcl.Interp
	prior  *viewcl.Result
	gen    uint64 // snapshot generation prior was validated at
	// witness is target.SumRanges over prior.Reads at the generation prior
	// ran at; witnessOK is false when that sum could not be taken.
	witness   uint64
	witnessOK bool
	paneID    int
}

// RoundResult reports one figure's outcome in a round.
type RoundResult struct {
	Fig    vclstdlib.Figure
	Pane   *panes.Pane
	Res    *viewcl.Result // the prior result when Reused
	Reused bool           // served whole from the prior round
}

// NewIncrementalExtractor builds the pipeline over base (the kernel's raw
// target, or a latency-wrapped view of it): target.NewObservedSnapshot's
// chain, then one memoizing interpreter per figure, all reporting into o
// (nil disables observability). k is unused and may be nil (the
// interpreters read the kernel through base alone); the parameter stays
// so that existing callers keep compiling.
func NewIncrementalExtractor(k *kernelsim.Kernel, base target.Target, figs []vclstdlib.Figure, o *obs.Observer) *IncrementalExtractor {
	snap := target.NewObservedSnapshot(base, o)
	x := &IncrementalExtractor{Session: NewSession(snap, o), snap: snap, o: o}
	for _, fig := range figs {
		in := newInterp(snap, o)
		in.Memo = viewcl.NewMemo(snap)
		x.states = append(x.states, &figState{fig: fig, interp: in})
	}
	return x
}

// Snapshot exposes the shared snapshot (for Advance, stats, tests).
func (x *IncrementalExtractor) Snapshot() *target.Snapshot { return x.snap }

// Advance marks the incremental stop boundary after the target ran: cached
// pages become stale (revalidated lazily by hash) and the write journal, if
// the chain exposes one, promotes untouched pages back to clean for free.
func (x *IncrementalExtractor) Advance() { x.snap.Advance() }

// Rounds reports how many extraction rounds have completed.
func (x *IncrementalExtractor) Rounds() int { return x.rounds }

// PaneFor resolves the pane a figure was attached to (false before the
// figure's first successful round, or for figures this extractor doesn't
// carry). The fleet fan-out uses it to aim one query at the same figure
// across heterogeneous sessions.
func (x *IncrementalExtractor) PaneFor(figID string) (int, bool) {
	for _, st := range x.states {
		if st.fig.ID == figID && st.paneID != 0 {
			return st.paneID, true
		}
	}
	return 0, false
}

// Round extracts every figure once. The first round is cold: each figure is
// extracted and attached as a pane. Later rounds are deltas: a figure is
// served whole from its prior result (its pane keeps its version — the
// server's ETag path then answers 304) when the prior result provably still
// holds. The free first check is the snapshot's page check over its ReadSet
// (the fill windows it read): unchanged since its last validation. When a page it read was written, the content
// witness decides: the exact bytes it read (Result.Reads), re-read through
// the snapshot, must sum to what they summed to when it ran — the check the
// memo makes per box, one level up. An extraction is a deterministic
// function of those bytes, so a write elsewhere in the page cannot change
// its output. The witness reads pages the page check just revalidated, or
// that a re-extraction would revalidate anyway, so it adds no link traffic.
//
// Anything else re-extracts through its memo, which reuses every clean box.
// A pane's version moves only when its content moves: a re-extraction
// whose graph is Equal to the displayed one leaves the pane alone (same
// version, graph and ViewQL engine) and is kept as the figure's prior
// result with the new run's read set, so the displayed graph's stats
// describe the extraction that produced its content. A re-extraction that
// changed something replaces the pane's graph in place with a version bump.
//
// One failing figure never discards the others: the failures come back
// joined in the error.
func (x *IncrementalExtractor) Round() ([]RoundResult, error) {
	out := make([]RoundResult, len(x.states))
	errs := make([]error, len(x.states))
	for i, st := range x.states {
		out[i].Fig = st.fig
		if st.prior != nil && x.priorHolds(st) {
			st.gen = x.snap.Generation()
			if x.o != nil {
				x.o.FigureReuses.Inc()
			}
			p, _ := x.Session.Tree.Pane(st.paneID)
			out[i].Pane = p
			out[i].Res = st.prior
			out[i].Reused = true
			if x.OnFigure != nil {
				x.OnFigure(i, st.fig, true, st.prior)
			}
			continue
		}
		res, err := st.interp.RunSource("fig"+st.fig.ID, st.fig.Program)
		if err != nil {
			errs[i] = fmt.Errorf("figure %s: %w", st.fig.ID, err)
			continue
		}
		st.prior = res
		st.gen = x.snap.Generation()
		sum, err := target.SumRanges(x.snap, res.Reads)
		st.witness, st.witnessOK = sum, err == nil
		if st.paneID == 0 {
			p, err := x.Session.attachPane("fig"+st.fig.ID, st.fig.Program, res)
			if err != nil {
				errs[i] = fmt.Errorf("figure %s: %w", st.fig.ID, err)
				continue
			}
			st.paneID = p.ID
			out[i].Pane = p
		} else if p, ok := x.Session.Tree.Pane(st.paneID); ok && res.Graph.Equal(p.Graph) {
			x.Session.recordExtraction(st.paneID, "fig"+st.fig.ID, res)
			res.Graph = p.Graph
			if x.o != nil {
				x.o.FigureUnchanged.Inc()
			}
			out[i].Pane = p
		} else {
			if err := x.Session.Tree.Update(st.paneID, res.Graph); err != nil {
				errs[i] = fmt.Errorf("figure %s: %w", st.fig.ID, err)
				continue
			}
			x.Session.recordExtraction(st.paneID, "fig"+st.fig.ID, res)
			p, _ := x.Session.Tree.Pane(st.paneID)
			out[i].Pane = p
		}
		out[i].Res = res
		if x.OnFigure != nil {
			x.OnFigure(i, st.fig, false, res)
		}
	}
	x.rounds++
	return out, errors.Join(errs...)
}

// priorHolds reports whether st's prior result still describes the target:
// its pages are unchanged since st.gen, or the bytes it read sum to its
// witness. A witness read that fails counts as changed.
func (x *IncrementalExtractor) priorHolds(st *figState) bool {
	if x.snap.RangesUnchangedSince(st.prior.ReadSet, st.gen) {
		return true
	}
	if !st.witnessOK {
		return false
	}
	sum, err := target.SumRanges(x.snap, st.prior.Reads)
	return err == nil && sum == st.witness
}
