package core_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/server"
)

// tinyOpts is a one-process kernel plotting figure 7-1.
var tinyOpts = core.SessionOptions{
	Kernel:  kernelsim.Options{Processes: 1, ThreadsPerProc: 1, VMAsPerProcess: 2, PagesPerFile: 2},
	Figures: []string{"7-1"},
}

// clock is an injectable manager clock.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// createWithin runs m.Create under a deadline, so an admission loop that
// spins fails the test instead of hanging it.
func createWithin(t *testing.T, m *core.SessionManager, id string) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := m.Create(id, tinyOpts)
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatalf("Create(%q) did not return", id)
		return nil
	}
}

// TestDefaultSessionPinned: the idle sweep and the memory-budget LRU evict
// other sessions but never core.DefaultSession; a budget smaller than the
// default alone refuses the next admission instead of spinning; the default
// runs on the manager's observer; and DELETE /sessions/default answers 409
// while the default keeps serving.
func TestDefaultSessionPinned(t *testing.T) {
	probe, err := core.NewSessionManager(core.ManagerOptions{PrivateBuilds: true}, nil).Create("probe", tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	per := probe.OwnedBytes()

	clk := &clock{t: time.Unix(1000, 0)}
	o := obs.NewObserver()
	m := core.NewSessionManager(core.ManagerOptions{
		MemBudget: 2*per + per/2, IdleTTL: time.Minute, Now: clk.now, PrivateBuilds: true,
	}, o)
	deflt, err := m.Create(core.DefaultSession, tinyOpts)
	if err != nil {
		t.Fatal(err)
	}
	if deflt.Obs != o {
		t.Fatal("the default session does not run on the manager's observer")
	}
	clk.advance(time.Second)
	if err := createWithin(t, m, "a"); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Second)
	// The default is the least recently used; the LRU must pass it over.
	if err := createWithin(t, m, "b"); err != nil {
		t.Fatalf("create under memory pressure: %v", err)
	}
	for id, want := range map[string]bool{core.DefaultSession: true, "a": false, "b": true} {
		if _, ok := m.Lookup(id); ok != want {
			t.Fatalf("%s resident = %v, want %v: the LRU evicts a alone", id, ok, want)
		}
	}
	if n := m.Tenants.Evicted.Value(); n != 1 {
		t.Fatalf("evicted counter = %d, want 1", n)
	}

	clk.advance(2 * time.Minute)
	if ids := m.SweepIdle(); len(ids) != 1 || ids[0] != "b" {
		t.Fatalf("idle sweep evicted %v, want [b]", ids)
	}
	if _, ok := m.Attach(core.DefaultSession); !ok {
		t.Fatal("the default session was evicted")
	}

	// A budget smaller than the default alone: the default is admitted,
	// nothing else is evictable, so the next admission is refused.
	tight := core.NewSessionManager(core.ManagerOptions{MemBudget: per / 2, PrivateBuilds: true}, nil)
	if err := createWithin(t, tight, core.DefaultSession); err != nil {
		t.Fatalf("default under a tiny budget: %v", err)
	}
	if ms, _ := tight.Attach(core.DefaultSession); ms.Obs == nil {
		t.Fatal("the default session of an unobserved manager has no observer")
	}
	if err := createWithin(t, tight, "x"); !errors.Is(err, core.ErrMemBudget) {
		t.Fatalf("admission past a budget held by the default: %v, want ErrMemBudget", err)
	}
	if tight.Len() != 1 {
		t.Fatalf("resident = %d, want the default alone", tight.Len())
	}

	srv := server.NewManaged(m, deflt)
	for _, c := range []struct{ method, path string }{
		{http.MethodDelete, "/sessions/default"},
		{http.MethodGet, "/api/panes"},
		{http.MethodGet, "/sessions/default/api/panes"},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, nil))
		want := http.StatusOK
		if c.method == http.MethodDelete {
			want = http.StatusConflict
		}
		if rec.Code != want {
			t.Fatalf("%s %s: %d, want %d: %s", c.method, c.path, rec.Code, want, rec.Body)
		}
	}
}
