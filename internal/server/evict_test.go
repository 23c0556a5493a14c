package server

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
)

// openStream subscribes to session id's /stream, reads the hello event,
// and returns a channel closed when the server ends the stream.
func openStream(t *testing.T, ts *httptest.Server, id string) <-chan struct{} {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/sessions/"+id+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s stream: %d", id, resp.StatusCode)
	}
	r := bufio.NewReader(resp.Body)
	if line, err := r.ReadString('\n'); err != nil || line != "event: hello\n" {
		t.Fatalf("%s stream opened with %q, %v", id, line, err)
	}
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, r)
	}()
	return ended
}

// TestRemovalEndsStreams holds one /stream subscriber on each of three
// sessions and removes each a different way: a memory-budget LRU eviction
// caused by a later POST /sessions, an idle sweep, and DELETE. After each
// removal that subscriber's stream ends, every /sessions/{id}/... request
// answers 404, and the default session keeps serving byte-identical panes.
func TestRemovalEndsStreams(t *testing.T) {
	opts := core.SessionOptions{Kernel: kernelsim.Options{Processes: 1}, Figures: []string{"7-1"}}
	probe, err := core.NewSessionManager(core.ManagerOptions{PrivateBuilds: true}, nil).Create("probe", opts)
	if err != nil {
		t.Fatal(err)
	}
	per := probe.OwnedBytes()

	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }
	// Room for the default and three more sessions: a fifth admission
	// evicts the least recently used.
	mgr := core.NewSessionManager(core.ManagerOptions{
		MemBudget: 4*per + per/2, IdleTTL: time.Minute, Now: clock, PrivateBuilds: true,
	}, obs.NewObserver())
	if _, err := mgr.Create(core.DefaultSession, opts); err != nil {
		t.Fatal(err)
	}
	srv := NewManaged(mgr, nil)
	ts := httptest.NewServer(srv)
	// Cleanups run last-in first-out: the streams' contexts are cancelled
	// before the server waits for its requests, even when a check fails.
	t.Cleanup(ts.Close)

	create := func(id string) {
		t.Helper()
		if code, body := do(srv, "POST", "/sessions", `{"id":"`+id+`","procs":1,"figures":["7-1"]}`); code != 201 {
			t.Fatalf("create %s: %d %s", id, code, body)
		}
	}
	touch := func(ids ...string) {
		t.Helper()
		for _, id := range ids {
			if code, body := do(srv, "GET", "/sessions/"+id+"/api/panes", ""); code != 200 {
				t.Fatalf("%s panes: %d %s", id, code, body)
			}
		}
	}
	defaultPanes := func() string {
		t.Helper()
		var b strings.Builder
		for _, path := range []string{"/api/panes", "/api/pane?id=1", "/api/pane?id=1&format=text",
			"/sessions/default/api/pane?id=1&format=dot"} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			if rec.Code != 200 {
				t.Fatalf("default %s: %d", path, rec.Code)
			}
			b.WriteString(rec.Header().Get("ETag") + "\n" + rec.Body.String())
		}
		return b.String()
	}
	before := defaultPanes()
	removed := func(id string, ended <-chan struct{}) {
		t.Helper()
		select {
		case <-ended:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: the stream outlived its session", id)
		}
		for _, req := range []struct{ method, path string }{
			{"GET", ""}, {"DELETE", ""}, {"GET", "/api/panes"}, {"GET", "/api/pane?id=1"},
			{"POST", "/round"}, {"GET", "/stream"}, {"GET", "/debug/metrics"}, {"GET", "/debug/stream"},
		} {
			if code, _ := do(srv, req.method, "/sessions/"+id+req.path, ""); code != 404 {
				t.Errorf("%s %s after %s left: %d, want 404", req.method, req.path, id, code)
			}
		}
		if got := defaultPanes(); got != before {
			t.Fatalf("the default session's panes changed when %s left", id)
		}
	}

	for _, id := range []string{"lru", "idle", "del"} {
		create(id)
	}
	streams := map[string]<-chan struct{}{}
	for _, id := range []string{"lru", "idle", "del"} {
		streams[id] = openStream(t, ts, id)
	}

	// lru is the least recently used when a fifth session needs room.
	advance(10 * time.Second)
	touch("idle", "del")
	create("newcomer")
	if _, ok := mgr.Lookup("lru"); ok || mgr.Len() != 4 {
		t.Fatalf("admission under the budget did not evict lru (resident %d)", mgr.Len())
	}
	removed("lru", streams["lru"])

	// idle is the one session untouched for longer than the TTL.
	advance(2 * time.Minute)
	touch("del", "newcomer")
	if ids := mgr.SweepIdle(); len(ids) != 1 || ids[0] != "idle" {
		t.Fatalf("idle sweep evicted %v, want [idle]", ids)
	}
	removed("idle", streams["idle"])

	if code, body := do(srv, "DELETE", "/sessions/del", ""); code != 200 {
		t.Fatalf("delete: %d %s", code, body)
	}
	removed("del", streams["del"])

	if n := mgr.Tenants.Evicted.Value(); n != 2 {
		t.Fatalf("evicted counter = %d, want 2", n)
	}
}
