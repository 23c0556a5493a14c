package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"visualinux/internal/coredump"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
)

// fleetOpts is a small heterogeneous fleet: same figure everywhere, but
// divergent workload shapes so every target's result set differs.
var fleetOpts = []SessionOptions{
	{Kernel: kernelsim.Options{Processes: 2, ThreadsPerProc: 1, VMAsPerProcess: 2, PagesPerFile: 2}, Figures: []string{"7-1"}},
	{Kernel: kernelsim.Options{Processes: 3, ThreadsPerProc: 1, VMAsPerProcess: 2, PagesPerFile: 2, RunqueueSkew: 2}, Figures: []string{"7-1"}},
	{Kernel: kernelsim.Options{Processes: 2, ThreadsPerProc: 2, VMAsPerProcess: 2, PagesPerFile: 2, ZombieTasks: 2}, Figures: []string{"7-1"}},
	{Kernel: kernelsim.Options{Processes: 2, ThreadsPerProc: 1, VMAsPerProcess: 2, PagesPerFile: 2, PipeBurst: 3}, Figures: []string{"7-1"}},
}

func admitFleet(t *testing.T, m *SessionManager, order []int) *Fleet {
	t.Helper()
	for _, i := range order {
		if _, err := m.Create(fmt.Sprintf("s%d", i), fleetOpts[i%len(fleetOpts)]); err != nil {
			t.Fatalf("admit s%d: %v", i, err)
		}
	}
	return &Fleet{Mgr: m}
}

// TestFleetMergeDeterminism pins the merge contract: the same fleet admitted
// in shuffled orders answers the same query with byte-identical JSON —
// targets sorted by session ID, provenance on every ref, merge concatenated
// in that order — regardless of admission or fan-out completion order.
func TestFleetMergeDeterminism(t *testing.T) {
	q := FleetQuery{Figure: "7-1", Query: "tasks = SELECT task_struct FROM *"}
	orders := [][]int{
		{0, 1, 2, 3, 4, 5},
		{5, 3, 1, 4, 2, 0},
		{2, 0, 5, 1, 3, 4},
	}
	var want []byte
	for n, order := range orders {
		m := NewSessionManager(ManagerOptions{}, obs.NewObserver())
		f := admitFleet(t, m, order)
		res, err := f.Query(q)
		if err != nil {
			t.Fatalf("order %d: %v", n, err)
		}
		got, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			if len(res.Targets) != len(order) || len(res.Merged) == 0 {
				t.Fatalf("degenerate result: %d targets, %d merged", len(res.Targets), len(res.Merged))
			}
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("order %d: merged result differs from order 0:\n%s\nvs\n%s", n, got, want)
		}
	}
}

// TestFleetProvenance checks every merged ref is stamped with its session of
// origin and per-target slices agree with the merge.
func TestFleetProvenance(t *testing.T) {
	m := NewSessionManager(ManagerOptions{}, obs.NewObserver())
	f := admitFleet(t, m, []int{0, 1, 2})
	res, err := f.Query(FleetQuery{Figure: "7-1", Query: "tasks = SELECT task_struct FROM *"})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, tr := range res.Targets {
		if tr.Err != "" {
			t.Fatalf("target %s: %s", tr.Target, tr.Err)
		}
		if tr.Source != string(SourceSim) {
			t.Fatalf("target %s: source %q, want sim", tr.Target, tr.Source)
		}
		for _, r := range tr.Refs {
			if r.Target != tr.Target {
				t.Fatalf("ref %s carries target %q inside slice for %q", r.BoxID, r.Target, tr.Target)
			}
		}
		total += tr.Count
	}
	if total == 0 || len(res.Merged) != total {
		t.Fatalf("merge size %d, per-target sum %d", len(res.Merged), total)
	}
	if res.Set != "tasks" {
		t.Fatalf("result set %q, want tasks", res.Set)
	}
}

// TestFleetCoreVsLiveEquivalence is the post-mortem fidelity check: a live
// session and a session loaded from that same kernel's core dump must give
// identical fleet answers modulo the provenance tag.
func TestFleetCoreVsLiveEquivalence(t *testing.T) {
	opts := kernelsim.Options{Processes: 2, ThreadsPerProc: 1, VMAsPerProcess: 2, PagesPerFile: 2, RunqueueSkew: 1}
	var img bytes.Buffer
	if err := coredump.Dump(kernelsim.Build(opts).Target(), &img); err != nil {
		t.Fatal(err)
	}

	m := NewSessionManager(ManagerOptions{}, obs.NewObserver())
	if _, err := m.Create("live", SessionOptions{Kernel: opts, Figures: []string{"7-1"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("dead", SessionOptions{Source: SourceCore, CoreImage: img.Bytes(), Figures: []string{"7-1"}}); err != nil {
		t.Fatal(err)
	}
	f := &Fleet{Mgr: m}
	res, err := f.Query(FleetQuery{Figure: "7-1", Query: "busy = SELECT task_struct FROM * WHERE pid > 0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Targets) != 2 {
		t.Fatalf("targets: %d", len(res.Targets))
	}
	dead, live := res.Targets[0], res.Targets[1]
	if dead.Target != "dead" || live.Target != "live" {
		t.Fatalf("unexpected sort order: %s, %s", dead.Target, live.Target)
	}
	if dead.Source != string(SourceCore) || live.Source != string(SourceSim) {
		t.Fatalf("sources: %s/%s", dead.Source, live.Source)
	}
	if dead.Err != "" || live.Err != "" {
		t.Fatalf("errors: %q / %q", dead.Err, live.Err)
	}
	if dead.Count == 0 || dead.Count != live.Count {
		t.Fatalf("counts diverge: core %d, live %d", dead.Count, live.Count)
	}
	for i := range dead.Refs {
		dr, lr := dead.Refs[i], live.Refs[i]
		dr.Target, lr.Target = "", ""
		if dr != lr {
			t.Fatalf("ref %d diverges: %+v vs %+v", i, dr, lr)
		}
	}
}

// TestFleetQueryErrors covers the input contract.
func TestFleetQueryErrors(t *testing.T) {
	m := NewSessionManager(ManagerOptions{}, obs.NewObserver())
	f := &Fleet{Mgr: m}
	if _, err := f.Query(FleetQuery{Figure: "7-1"}); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, err := f.Query(FleetQuery{Query: "x = SELECT rq FROM *"}); err == nil {
		t.Fatal("missing figure accepted")
	}
	if _, err := f.Query(FleetQuery{Figure: "7-1", Query: "x = SELECT rq FROM *"}); err != ErrNoFleetSessions {
		t.Fatalf("empty fleet: %v", err)
	}
	// Per-target failure is an entry, not an abort.
	admitFleet(t, m, []int{0})
	res, err := f.Query(FleetQuery{Figure: "7-1", Query: "x = SELECT rq FROM *", Sessions: []string{"s0", "ghost"}})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]TargetResult{}
	for _, tr := range res.Targets {
		byID[tr.Target] = tr
	}
	if byID["ghost"].Err == "" {
		t.Fatal("ghost target reported no error")
	}
	if byID["s0"].Err != "" || byID["s0"].Count == 0 {
		t.Fatalf("s0: %+v", byID["s0"])
	}
	// UPDATE programs are rejected per-target: fleet scope is read-only.
	res, err = f.Query(FleetQuery{Figure: "7-1", Query: "x = SELECT rq FROM *\nUPDATE x WITH collapsed: true"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Targets[0].Err, "read-only") {
		t.Fatalf("UPDATE not rejected: %+v", res.Targets[0])
	}
}

// TestFleetChatRunqueue asks the fleet question end to end: the session
// built with RunqueueSkew piles runnable tasks onto CPU 0 and must rank
// first for "which target has the longest runqueue?".
func TestFleetChatRunqueue(t *testing.T) {
	m := NewSessionManager(ManagerOptions{}, obs.NewObserver())
	if _, err := m.Create("flat", SessionOptions{
		Kernel:  kernelsim.Options{Processes: 2, ThreadsPerProc: 1, VMAsPerProcess: 2, PagesPerFile: 2},
		Figures: []string{"7-1"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("skewed", SessionOptions{
		Kernel:  kernelsim.Options{Processes: 6, ThreadsPerProc: 2, VMAsPerProcess: 2, PagesPerFile: 2, RunqueueSkew: 4},
		Figures: []string{"7-1"},
	}); err != nil {
		t.Fatal(err)
	}
	f := &Fleet{Mgr: m}
	ans, err := f.Chat("which target has the longest runqueue?")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Ranking) != 2 {
		t.Fatalf("ranking: %+v", ans.Ranking)
	}
	if ans.Ranking[0].Target != "skewed" {
		t.Fatalf("expected skewed first: %+v", ans.Ranking)
	}
	if !strings.Contains(ans.Text, "skewed") || !strings.Contains(ans.Text, "longest runqueue") {
		t.Fatalf("answer text: %q", ans.Text)
	}
	if _, err := f.Chat("what does pane 1 show?"); err == nil {
		t.Fatal("non-fleet question accepted")
	}
}

// TestFleetReadsKeepNoSessionAlive checks a fleet read reports on a
// session without using it: a dashboard asking the fleet something every
// 50 s must not hold two otherwise idle sessions past a 60 s idle TTL.
func TestFleetReadsKeepNoSessionAlive(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	m := NewSessionManager(ManagerOptions{IdleTTL: time.Minute, Now: clk.now}, obs.NewObserver())
	for _, id := range []string{"a", "b"} {
		if _, err := m.Create(id, tinySession()); err != nil {
			t.Fatal(err)
		}
	}
	f := &Fleet{Mgr: m}
	for i := 0; i < 3; i++ {
		clk.advance(50 * time.Second)
		if _, err := f.Query(FleetQuery{Figure: "7-1", Query: "tasks = SELECT task_struct FROM *"}); err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{"which target has the longest runqueue?", "which fleet member is slowest?"} {
			if _, err := f.Chat(q); err != nil {
				t.Fatalf("%q: %v", q, err)
			}
		}
	}
	ids := m.SweepIdle()
	sort.Strings(ids)
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("after 150 s of fleet reads alone the sweep evicted %v, want [a b]", ids)
	}
}

// TestFleetHealth checks the /debug/fleet counters.
func TestFleetHealth(t *testing.T) {
	opts := kernelsim.Options{Processes: 1, ThreadsPerProc: 1, VMAsPerProcess: 2, PagesPerFile: 2}
	var img bytes.Buffer
	if err := coredump.Dump(kernelsim.Build(opts).Target(), &img); err != nil {
		t.Fatal(err)
	}
	m := NewSessionManager(ManagerOptions{}, obs.NewObserver())
	if _, err := m.Create("live", SessionOptions{Kernel: opts, Figures: []string{"7-1"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("dead", SessionOptions{Source: SourceCore, CoreImage: img.Bytes(), Figures: []string{"7-1"}}); err != nil {
		t.Fatal(err)
	}
	f := &Fleet{Mgr: m}
	if _, err := f.Query(FleetQuery{Figure: "7-1", Query: "x = SELECT rq FROM *"}); err != nil {
		t.Fatal(err)
	}
	h := f.Health()
	if h.Sessions != 2 || h.Live != 1 || h.Core != 1 {
		t.Fatalf("health counts: %+v", h)
	}
	if h.Queries != 1 || h.LastTargets != 2 {
		t.Fatalf("health query stats: %+v", h)
	}
}
