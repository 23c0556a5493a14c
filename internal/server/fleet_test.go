package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/coredump"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/viewql"
)

// fleetResult mirrors core.FleetResult for decoding.
type fleetResult struct {
	Figure  string `json:"figure"`
	Set     string `json:"set"`
	Targets []struct {
		Target string       `json:"target"`
		Source string       `json:"source"`
		Count  int          `json:"count"`
		Refs   []viewql.Ref `json:"refs"`
		Err    string       `json:"error"`
	} `json:"targets"`
	Merged []viewql.Ref `json:"merged"`
}

// dumpToFile builds a kernel with opts and writes its core dump under dir.
func dumpToFile(t *testing.T, dir, name string, opts kernelsim.Options) string {
	t.Helper()
	k := kernelsim.Build(opts)
	path := filepath.Join(dir, name)
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	if err := coredump.Dump(k.Target(), fh); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFleetQuery16Targets is the tentpole acceptance test: one server hosts
// a 16-target fleet — 14 live sims across three workload variants plus two
// loaded core dumps — and a single POST /fleet/query answers over all of
// them with per-target provenance on every merged ref.
func TestFleetQuery16Targets(t *testing.T) {
	mgr := core.NewSessionManager(core.ManagerOptions{MaxSessions: 32}, obs.NewObserver())
	srv := NewManaged(mgr, nil)
	dir := t.TempDir()

	variants := []string{
		`"procs":2,"runqueue_skew":2`,
		`"procs":2,"zombie_tasks":2`,
		`"procs":2,"pipe_burst":3`,
	}
	for i := 0; i < 14; i++ {
		body := fmt.Sprintf(`{"id":"live%02d",%s,"figures":["7-1"]}`, i, variants[i%len(variants)])
		if code, out := do(srv, "POST", "/sessions", body); code != 201 {
			t.Fatalf("live%02d: %d %s", i, code, out)
		}
	}
	for i := 0; i < 2; i++ {
		path := dumpToFile(t, dir, fmt.Sprintf("crash%d.vlcore", i),
			kernelsim.Options{Processes: 2 + i, ThreadsPerProc: 1, VMAsPerProcess: 2, PagesPerFile: 2})
		body := fmt.Sprintf(`{"id":"dead%02d","core":%q,"figures":["7-1"]}`, i, path)
		if code, out := do(srv, "POST", "/sessions", body); code != 201 {
			t.Fatalf("dead%02d: %d %s", i, code, out)
		}
	}

	code, out := do(srv, "POST", "/fleet/query",
		`{"figure":"7-1","query":"busy = SELECT task_struct FROM * WHERE pid > 0"}`)
	if code != 200 {
		t.Fatalf("fleet query: %d %s", code, out)
	}
	var res fleetResult
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Targets) != 16 {
		t.Fatalf("targets: %d, want 16", len(res.Targets))
	}
	if res.Set != "busy" {
		t.Fatalf("set: %q", res.Set)
	}
	total, core_ := 0, 0
	for _, tr := range res.Targets {
		if tr.Err != "" {
			t.Fatalf("target %s: %s", tr.Target, tr.Err)
		}
		if tr.Source == "core" {
			core_++
		}
		total += tr.Count
	}
	if core_ != 2 {
		t.Fatalf("core targets: %d, want 2", core_)
	}
	if total == 0 || len(res.Merged) != total {
		t.Fatalf("merged %d vs per-target sum %d", len(res.Merged), total)
	}
	for _, r := range res.Merged {
		if r.Target == "" {
			t.Fatalf("merged ref %s has no provenance", r.BoxID)
		}
	}

	// GET form with an explicit scope.
	code, out = do(srv, "GET",
		"/fleet/query?figure=7-1&q=rqs+%3D+SELECT+rq+FROM+*&sessions=live00,dead00", "")
	if code != 200 {
		t.Fatalf("GET fleet query: %d %s", code, out)
	}
	res = fleetResult{}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Targets) != 2 || res.Targets[0].Target != "dead00" || res.Targets[1].Target != "live00" {
		t.Fatalf("scoped targets: %+v", res.Targets)
	}

	// Health surface counts the whole fleet.
	code, out = do(srv, "GET", "/debug/fleet", "")
	if code != 200 {
		t.Fatalf("debug/fleet: %d %s", code, out)
	}
	var h struct {
		Sessions int   `json:"sessions"`
		Live     int   `json:"live"`
		Core     int   `json:"core"`
		Queries  int64 `json:"queries"`
	}
	if err := json.Unmarshal([]byte(out), &h); err != nil {
		t.Fatal(err)
	}
	if h.Sessions != 16 || h.Live != 14 || h.Core != 2 || h.Queries != 2 {
		t.Fatalf("fleet health: %+v", h)
	}
}

// TestFleetQueryHTTPErrors pins the status mapping.
func TestFleetQueryHTTPErrors(t *testing.T) {
	mgr := core.NewSessionManager(core.ManagerOptions{}, obs.NewObserver())
	srv := NewManaged(mgr, nil)
	if code, _ := do(srv, "POST", "/fleet/query", `{"figure":"7-1","query":"x = SELECT rq FROM *"}`); code != 503 {
		t.Fatalf("empty fleet: %d, want 503", code)
	}
	if code, _ := do(srv, "POST", "/fleet/query", `{"figure":"7-1"}`); code != 422 {
		t.Fatalf("missing query: %d, want 422", code)
	}
	if code, _ := do(srv, "POST", "/fleet/query", `not json`); code != 400 {
		t.Fatalf("bad body: %d, want 400", code)
	}
	if code, _ := do(srv, "PUT", "/fleet/query", ""); code != 405 {
		t.Fatalf("PUT: %d, want 405", code)
	}
}

// TestCoreSessionOverHTTP covers the post-mortem admission path: a session
// created from a dump serves panes read-only — stepping it answers 422.
func TestCoreSessionOverHTTP(t *testing.T) {
	mgr := core.NewSessionManager(core.ManagerOptions{}, obs.NewObserver())
	srv := NewManaged(mgr, nil)
	path := dumpToFile(t, t.TempDir(), "k.vlcore",
		kernelsim.Options{Processes: 2, ThreadsPerProc: 1, VMAsPerProcess: 2, PagesPerFile: 2})

	code, out := do(srv, "POST", "/sessions", fmt.Sprintf(`{"id":"pm","core":%q,"figures":["7-1"]}`, path))
	if code != 201 {
		t.Fatalf("create: %d %s", code, out)
	}
	var created struct {
		Source string `json:"source"`
		Panes  int    `json:"panes"`
	}
	if err := json.Unmarshal([]byte(out), &created); err != nil {
		t.Fatal(err)
	}
	if created.Source != "core" || created.Panes == 0 {
		t.Fatalf("created: %+v", created)
	}
	if code, out = do(srv, "GET", "/sessions/pm/api/panes", ""); code != 200 {
		t.Fatalf("panes: %d %s", code, out)
	}
	if code, out = do(srv, "POST", "/sessions/pm/round", ""); code != 422 {
		t.Fatalf("round on post-mortem session: %d %s, want 422", code, out)
	}
	// A dump path the server cannot read is a client error, not a crash.
	if code, _ := do(srv, "POST", "/sessions", `{"id":"bad","core":"/nonexistent.vlcore"}`); code != 422 {
		t.Fatalf("missing dump file: %d, want 422", code)
	}
	// A corrupt dump is rejected at admission with no session residue.
	badPath := filepath.Join(t.TempDir(), "bad.vlcore")
	if err := os.WriteFile(badPath, []byte("NOTACORE"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _ := do(srv, "POST", "/sessions", fmt.Sprintf(`{"id":"bad","core":%q}`, badPath)); code != 422 {
		t.Fatalf("corrupt dump: %d, want 422", code)
	}
	if code, _ := do(srv, "GET", "/sessions/bad", ""); code != 404 {
		t.Fatalf("corrupt dump left a session behind: %d", code)
	}
}

// TestVChatFleetIntent routes a fleet question through a single session's
// vchat endpoint: classification must divert it to the fleet scope before
// the tenant lock, and the answer must rank the skewed target first.
func TestVChatFleetIntent(t *testing.T) {
	mgr := core.NewSessionManager(core.ManagerOptions{}, obs.NewObserver())
	srv := NewManaged(mgr, nil)
	if code, out := do(srv, "POST", "/sessions", `{"id":"flat","procs":2,"figures":["7-1"]}`); code != 201 {
		t.Fatalf("flat: %d %s", code, out)
	}
	if code, out := do(srv, "POST", "/sessions", `{"id":"skewed","procs":6,"runqueue_skew":4,"figures":["7-1"]}`); code != 201 {
		t.Fatalf("skewed: %d %s", code, out)
	}
	code, out := do(srv, "POST", "/sessions/flat/api/vchat",
		`{"message":"which target has the longest runqueue?"}`)
	if code != 200 {
		t.Fatalf("vchat: %d %s", code, out)
	}
	var ans struct {
		Kind    string `json:"kind"`
		Answer  string `json:"answer"`
		Ranking []struct {
			Target string  `json:"target"`
			Value  float64 `json:"value"`
		} `json:"ranking"`
	}
	if err := json.Unmarshal([]byte(out), &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Kind != "fleet" {
		t.Fatalf("kind: %q (%s)", ans.Kind, out)
	}
	if len(ans.Ranking) != 2 || ans.Ranking[0].Target != "skewed" {
		t.Fatalf("ranking: %+v", ans.Ranking)
	}
}

// TestFleetQueryDuringAdmission overlaps POST /sessions admissions with
// POST /fleet/query over HTTP. A fleet query lists every resident session,
// including one whose cold round is still running; it must wait for that
// round under the session's lock and answer from the finished panes, never
// read the extractor while the round writes it (a DATA RACE under -race)
// or report the figure as not attached.
func TestFleetQueryDuringAdmission(t *testing.T) {
	mgr := core.NewSessionManager(core.ManagerOptions{}, obs.NewObserver())
	ts := httptest.NewServer(NewManaged(mgr, nil))
	defer ts.Close()
	post := func(path, body string) (int, []byte) {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
		return resp.StatusCode, out
	}
	if code, out := post("/sessions", `{"id":"seed","procs":2,"figures":["7-1"]}`); code != 201 {
		t.Fatalf("seed: %d %s", code, out)
	}

	const admissions = 8
	var admitting, querying sync.WaitGroup
	admitted := make(chan struct{})
	for i := 0; i < admissions; i++ {
		admitting.Add(1)
		go func(i int) {
			defer admitting.Done()
			if code, out := post("/sessions", fmt.Sprintf(`{"id":"adm%d","procs":2,"figures":["7-1"]}`, i)); code != 201 {
				t.Errorf("adm%d: %d %s", i, code, out)
			}
		}(i)
	}
	go func() { admitting.Wait(); close(admitted) }()
	query := func() {
		code, out := post("/fleet/query", `{"figure":"7-1","query":"rqs = SELECT rq FROM *"}`)
		if code != 200 {
			t.Errorf("fleet query: %d %s", code, out)
			return
		}
		var res fleetResult
		if err := json.Unmarshal(out, &res); err != nil {
			t.Error(err)
			return
		}
		for _, tr := range res.Targets {
			if tr.Err != "" || tr.Count == 0 {
				t.Errorf("target %s answered from a half-built session: count %d, error %q", tr.Target, tr.Count, tr.Err)
			}
		}
	}
	for q := 0; q < 2; q++ {
		querying.Add(1)
		go func() {
			defer querying.Done()
			for {
				select {
				case <-admitted:
					return
				default:
					query()
				}
			}
		}()
	}
	querying.Wait()
	query() // every admission is finished: all nine answer
	if mgr.Len() != admissions+1 {
		t.Fatalf("resident %d, want %d", mgr.Len(), admissions+1)
	}
}
