package obs

import (
	"sort"
	"sync"
)

// DefaultTraceStoreDepth is how many rounds of span trees TraceStore keeps
// per pane. Diagnosis needs the latest round plus enough history to form a
// steady-state baseline and answer "what changed since the last stop".
const DefaultTraceStoreDepth = 8

// TraceRecord is one retained extraction round for a pane: the full span
// tree plus enough identity to answer questions about it without touching
// /debug/trace.
type TraceRecord struct {
	Pane   int         `json:"pane"`
	Figure string      `json:"figure"` // extraction name, e.g. "fig3-6"
	Seq    uint64      `json:"seq"`    // store-wide admission order
	DurMS  float64     `json:"dur_ms"` // whole-round wall duration
	Trace  *SpanExport `json:"trace,omitempty"`
}

// SlowEntry is one row of /debug/slowlog: a pane's slowest retained round
// under its label, e.g. "pane 3 (fig3-6)".
type SlowEntry struct {
	Label string      `json:"label"`
	DurMS float64     `json:"dur_ms"`
	Seq   uint64      `json:"seq"`
	Trace *SpanExport `json:"trace,omitempty"`
}

// TraceStore is the one place span trees are retained: per pane, the last
// N rounds (recency, for "why is pane 3 slow?" and "what changed?") and
// the slowest round seen (for "which round was worst?"). "Latest" and
// "slowest" are queries over it, never separate logs.
//
// Extraction panes have IDs >= 1. Negative IDs are reserved pseudo-panes,
// such as stream.FanoutTracePane; they are kept and reachable through
// History and Last, but Panes, Slowest and Latest skip them.
//
// One store holds one session's panes: pane IDs are only unique within a
// session. Safe for concurrent writers and readers; nil-safe like the rest
// of obs.
type TraceStore struct {
	mu     sync.Mutex
	depth  int
	seq    uint64
	latest int // extraction pane recorded most recently; 0 before any
	byID   map[int]*paneTraces
}

type paneTraces struct {
	ring    []TraceRecord // oldest first, len <= depth
	slowest TraceRecord
}

// NewTraceStore creates a store keeping the last depth rounds per pane
// (depth <= 0 falls back to DefaultTraceStoreDepth).
func NewTraceStore(depth int) *TraceStore {
	if depth <= 0 {
		depth = DefaultTraceStoreDepth
	}
	return &TraceStore{depth: depth, byID: make(map[int]*paneTraces)}
}

func isExtractionPane(pane int) bool { return pane >= 1 }

// Record retains one extraction round for a pane, evicting the pane's
// oldest round beyond the depth bound. A nil trace is ignored.
func (ts *TraceStore) Record(pane int, figure string, durMS float64, trace *SpanExport) {
	if ts == nil || trace == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.seq++
	rec := TraceRecord{Pane: pane, Figure: figure, Seq: ts.seq, DurMS: durMS, Trace: trace}
	pt := ts.byID[pane]
	if pt == nil {
		pt = &paneTraces{slowest: rec}
		ts.byID[pane] = pt
	} else if durMS > pt.slowest.DurMS {
		pt.slowest = rec
	}
	pt.ring = append(pt.ring, rec)
	if len(pt.ring) > ts.depth {
		pt.ring = append(pt.ring[:0], pt.ring[len(pt.ring)-ts.depth:]...)
	}
	if isExtractionPane(pane) {
		ts.latest = pane
	}
}

// Last returns a pane's most recent round.
func (ts *TraceStore) Last(pane int) (TraceRecord, bool) {
	if ts == nil {
		return TraceRecord{}, false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.lastLocked(pane)
}

func (ts *TraceStore) lastLocked(pane int) (TraceRecord, bool) {
	pt := ts.byID[pane]
	if pt == nil {
		return TraceRecord{}, false
	}
	return pt.ring[len(pt.ring)-1], true
}

// Latest returns the most recent round of any extraction pane.
func (ts *TraceStore) Latest() (TraceRecord, bool) {
	if ts == nil {
		return TraceRecord{}, false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.lastLocked(ts.latest)
}

// History returns a pane's retained rounds, oldest first.
func (ts *TraceStore) History(pane int) []TraceRecord {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	pt := ts.byID[pane]
	if pt == nil {
		return nil
	}
	return append([]TraceRecord(nil), pt.ring...)
}

// Panes lists every extraction pane with at least one retained round,
// ascending.
func (ts *TraceStore) Panes() []int {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]int, 0, len(ts.byID))
	for id := range ts.byID {
		if isExtractionPane(id) {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// Slowest returns each extraction pane's slowest round, slowest first (ties
// in admission order), at most n of them. A pane's row is its personal
// worst: a faster repeat never replaces it, and one hot pane never evicts
// another pane's row.
func (ts *TraceStore) Slowest(n int) []TraceRecord {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	out := make([]TraceRecord, 0, len(ts.byID))
	for id, pt := range ts.byID {
		if isExtractionPane(id) {
			out = append(out, pt.slowest)
		}
	}
	ts.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].DurMS != out[j].DurMS {
			return out[i].DurMS > out[j].DurMS
		}
		return out[i].Seq < out[j].Seq
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}
