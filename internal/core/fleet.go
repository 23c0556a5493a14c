package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"visualinux/internal/vchat"
	"visualinux/internal/viewql"
)

// Fleet is ViewQL's cross-target scope (ROADMAP item 4): one query fanned
// out over many resident sessions — live sims with divergent workloads and
// post-mortem core images alike — merged back into one provenance-tagged
// result set. The fan-out runs through the global bounded pool under each
// session's fairness key, so a wide fleet query shares workers with the
// sessions' own extraction rounds instead of stampeding past them. Every
// per-session read runs under that session's read lock, so fleet reads
// coexist with per-session mutations and wait out a session's admission.
// A fleet read reports on a session rather than using it: it resolves
// sessions with Lookup, so a dashboard polling the fleet never resets a
// session's idle clock.
type Fleet struct {
	Mgr *SessionManager

	queries  atomic.Int64
	errors   atomic.Int64
	lastMS   atomic.Int64 // microseconds, stored as int64
	lastSize atomic.Int64 // targets in the last query
}

// ErrNoFleetSessions rejects a fleet query with nothing to fan out over.
var ErrNoFleetSessions = errors.New("no sessions in fleet scope")

// FleetQuery is one cross-target request.
type FleetQuery struct {
	// Figure aims the query at one stdlib figure's pane in every session
	// (sessions not carrying the figure report an error entry).
	Figure string `json:"figure"`
	// Query is the ViewQL program, run read-only (UPDATE is rejected).
	Query string `json:"query"`
	// Sessions restricts the scope; empty means every resident session.
	Sessions []string `json:"sessions,omitempty"`
	// Set names the result set to report; empty takes the program's last
	// SELECT destination.
	Set string `json:"set,omitempty"`
}

// TargetResult is one session's slice of a fleet query.
type TargetResult struct {
	Target string       `json:"target"`
	Source string       `json:"source"` // "sim" | "core"
	Pane   int          `json:"pane,omitempty"`
	Count  int          `json:"count"`
	Refs   []viewql.Ref `json:"refs"`
	Err    string       `json:"error,omitempty"`

	setName string // resolved result-set name (reported via FleetResult.Set)
}

// FleetResult is the merged fan-out outcome. Targets are sorted by session
// ID and Merged concatenates their ref sets in that order with provenance
// stamped on every Ref, so the same fleet and query produce byte-identical
// results regardless of admission or completion order.
type FleetResult struct {
	Figure  string         `json:"figure"`
	Query   string         `json:"query"`
	Set     string         `json:"set"`
	Targets []TargetResult `json:"targets"`
	Merged  []viewql.Ref   `json:"merged"`
}

// Query fans q across the fleet. Each session runs the program against a
// fresh read-only engine over its figure pane's graph — per-session sets
// never leak between targets — scheduled on the global pool under the
// session's fairness key. Partial failure is per-target: a session that
// lacks the figure or rejects the program contributes an error entry, not
// a query abort.
func (f *Fleet) Query(q FleetQuery) (*FleetResult, error) {
	if q.Query == "" {
		return nil, errors.New("empty fleet query")
	}
	if q.Figure == "" {
		return nil, errors.New("fleet query needs a figure")
	}
	ids := q.Sessions
	if len(ids) == 0 {
		for _, info := range f.Mgr.List() {
			ids = append(ids, info.ID)
		}
	}
	if len(ids) == 0 {
		return nil, ErrNoFleetSessions
	}
	t0 := time.Now()
	f.queries.Add(1)
	f.lastSize.Store(int64(len(ids)))

	// One outer goroutine per target, each blocking in the pool under its
	// session key: the pool's round-robin then interleaves fleet work with
	// the sessions' own rounds. The session's read lock is taken BEFORE
	// entering the pool — the same lock→pool order stop events use — so
	// pool workers themselves never block on session locks. (Tasks must
	// not nest pool Runs, so the query body itself never touches the pool.)
	results := make([]TargetResult, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			ms, ok := f.Mgr.Lookup(id)
			if !ok {
				results[i] = TargetResult{Target: id, Err: "no such session"}
				return
			}
			ms.RLock()
			defer ms.RUnlock()
			err := DefaultPool().Run(ms.Session.poolKey(), func() {
				results[i] = f.queryOne(ms, q)
			})
			if err != nil {
				results[i] = TargetResult{Target: id, Source: string(ms.Source), Err: err.Error()}
			}
		}(i, id)
	}
	wg.Wait()

	sort.Slice(results, func(i, j int) bool { return results[i].Target < results[j].Target })
	res := &FleetResult{Figure: q.Figure, Query: q.Query, Set: q.Set, Targets: results}
	for _, tr := range results {
		if tr.Err != "" {
			f.errors.Add(1)
		}
		if res.Set == "" && tr.Err == "" {
			res.Set = tr.setName
		}
		res.Merged = append(res.Merged, tr.Refs...)
	}
	f.lastMS.Store(time.Since(t0).Microseconds())
	return res, nil
}

// queryOne runs the program against one session's figure pane. The caller
// holds the session's read lock.
func (f *Fleet) queryOne(ms *ManagedSession, q FleetQuery) TargetResult {
	tr := TargetResult{Target: ms.ID}
	tr.Source = string(ms.Source)
	paneID, ok := ms.Extractor.PaneFor(q.Figure)
	if !ok {
		tr.Err = fmt.Sprintf("figure %s not attached", q.Figure)
		return tr
	}
	p, ok := ms.Session.Tree.Pane(paneID)
	if !ok {
		tr.Err = fmt.Sprintf("pane %d missing", paneID)
		return tr
	}
	tr.Pane = paneID
	eng := viewql.NewEngine(p.Graph)
	eng.ReadOnly = true
	if err := eng.Apply(q.Query); err != nil {
		tr.Err = err.Error()
		return tr
	}
	set := q.Set
	if set == "" {
		set = eng.LastSet
	}
	if set == "" {
		tr.Err = "program defines no result set"
		return tr
	}
	tr.setName = set
	refs := eng.Set(set)
	tr.Refs = make([]viewql.Ref, len(refs))
	for i, r := range refs {
		r.Target = ms.ID
		tr.Refs[i] = r
	}
	tr.Count = len(tr.Refs)
	return tr
}

// FleetHealth is the /debug/fleet surface: the fan-out counters plus the
// per-session rows the fleet would scope over.
type FleetHealth struct {
	Sessions     int           `json:"sessions"`
	Live         int           `json:"live"`
	Core         int           `json:"core"`
	Queries      int64         `json:"queries"`
	TargetErrors int64         `json:"target_errors"`
	LastFanoutMS float64       `json:"last_fanout_ms"`
	LastTargets  int64         `json:"last_targets"`
	Members      []SessionInfo `json:"members"`
}

// Health snapshots the fleet.
func (f *Fleet) Health() FleetHealth {
	members := f.Mgr.List()
	h := FleetHealth{
		Sessions:     len(members),
		Queries:      f.queries.Load(),
		TargetErrors: f.errors.Load(),
		LastFanoutMS: float64(f.lastMS.Load()) / 1000,
		LastTargets:  f.lastSize.Load(),
		Members:      members,
	}
	for _, m := range members {
		if m.Source == string(SourceCore) {
			h.Core++
		} else {
			h.Live++
		}
	}
	return h
}

// FleetRank is one entry of a ranked fleet answer, best first.
type FleetRank struct {
	Target string  `json:"target"`
	Value  float64 `json:"value"`
	Detail string  `json:"detail,omitempty"`
}

// FleetAnswer is a ranked natural-language fleet response.
type FleetAnswer struct {
	Question string      `json:"question"`
	Text     string      `json:"text"`
	Ranking  []FleetRank `json:"ranking"`
}

// Chat answers an IntentFleet question by running the fan-out and ranking
// with the session-level diagnosis machinery: "which target has the
// longest runqueue?" fleet-queries the scheduler figure and ranks rq
// nr_running; "which fleet member has pane 3 slowest?" ranks the panes'
// retained extraction rounds.
func (f *Fleet) Chat(text string) (*FleetAnswer, error) {
	intent, pane := vchat.Classify(text)
	if intent != vchat.IntentFleet {
		return nil, fmt.Errorf("not a fleet question: %q", text)
	}
	low := strings.ToLower(text)
	switch {
	case strings.Contains(low, "runqueue") || strings.Contains(low, "run queue"):
		return f.rankRunqueues(text)
	case strings.Contains(low, "slow"):
		return f.rankSlowest(text, pane)
	}
	return nil, fmt.Errorf("unsupported fleet question: %q", text)
}

// schedFigure is the stdlib figure carrying the CFS run queue (ULK 7-1).
const schedFigure = "7-1"

// rankRunqueues fleet-queries the scheduler figure and ranks targets by
// their largest rq.nr_running.
func (f *Fleet) rankRunqueues(question string) (*FleetAnswer, error) {
	res, err := f.Query(FleetQuery{
		Figure: schedFigure,
		Query:  "rqs = SELECT rq FROM *",
	})
	if err != nil {
		return nil, err
	}
	ans := &FleetAnswer{Question: question}
	for _, tr := range res.Targets {
		if tr.Err != "" {
			continue
		}
		ms, ok := f.Mgr.Lookup(tr.Target)
		if !ok {
			continue
		}
		best := -1.0
		detail := ""
		ms.RLock()
		if p, ok := ms.Session.Tree.Pane(tr.Pane); ok {
			for _, ref := range tr.Refs {
				b, ok := p.Graph.Get(ref.BoxID)
				if !ok {
					continue
				}
				if it, ok := b.Member("nr_running"); ok && it.IsNum && float64(it.Raw) > best {
					best = float64(it.Raw)
					detail = fmt.Sprintf("%s nr_running=%d", ref.BoxID, it.Raw)
				}
			}
		}
		ms.RUnlock()
		if best >= 0 {
			ans.Ranking = append(ans.Ranking, FleetRank{Target: tr.Target, Value: best, Detail: detail})
		}
	}
	if len(ans.Ranking) == 0 {
		return nil, fmt.Errorf("no target reported a runqueue")
	}
	sortRanks(ans.Ranking)
	top := ans.Ranking[0]
	ans.Text = fmt.Sprintf("target %s has the longest runqueue (%s) across %d targets",
		top.Target, top.Detail, len(ans.Ranking))
	return ans, nil
}

// rankSlowest ranks targets by a pane's latest retained round duration
// (pane 0 means each session's slowest pane), via the existing Diagnosis
// machinery.
func (f *Fleet) rankSlowest(question string, pane int) (*FleetAnswer, error) {
	ans := &FleetAnswer{Question: question}
	for _, info := range f.Mgr.List() {
		ms, ok := f.Mgr.Lookup(info.ID)
		if !ok {
			continue
		}
		var d *vchat.Diagnosis
		var err error
		ms.RLock()
		if pane > 0 {
			d, err = ms.Session.Diagnose(pane)
		} else {
			d, err = ms.Session.DiagnoseSlowest()
		}
		ms.RUnlock()
		if err != nil || d == nil {
			continue
		}
		ans.Ranking = append(ans.Ranking, FleetRank{
			Target: info.ID,
			Value:  d.TotalMS,
			Detail: fmt.Sprintf("pane %d (%s) %.2fms, suspect %s", d.Pane, d.Figure, d.TotalMS, d.Suspect),
		})
	}
	if len(ans.Ranking) == 0 {
		return nil, fmt.Errorf("no target has retained rounds for that pane")
	}
	sortRanks(ans.Ranking)
	top := ans.Ranking[0]
	ans.Text = fmt.Sprintf("fleet member %s is slowest: %s", top.Target, top.Detail)
	return ans, nil
}

// sortRanks orders best-first (highest value), ties by target ID so the
// answer is deterministic.
func sortRanks(rs []FleetRank) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Value != rs[j].Value {
			return rs[i].Value > rs[j].Value
		}
		return rs[i].Target < rs[j].Target
	})
}
