package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
)

// tinyKernel keeps manager tests fast: one process, minimal page cache.
var tinyKernel = kernelsim.Options{
	Processes: 1, ThreadsPerProc: 1, VMAsPerProcess: 2, PagesPerFile: 2,
}

func tinySession() SessionOptions {
	return SessionOptions{Kernel: tinyKernel, Figures: []string{"7-1"}}
}

// fakeClock is the injectable TTL clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestSessionLifecycleMatrix walks create → extract → idle-evict →
// re-attach, the core row of the lifecycle matrix.
func TestSessionLifecycleMatrix(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	m := NewSessionManager(ManagerOptions{IdleTTL: time.Minute, Now: clk.now}, obs.NewObserver())

	// Create + cold extract.
	ms, err := m.Create("alpha", tinySession())
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if ms.Session.Tree == nil || len(ms.Session.Tree.Panes()) != 1 {
		t.Fatal("cold round did not attach the figure pane")
	}

	// A steady round after the workload ran.
	clk.advance(30 * time.Second)
	if _, err := ms.StepRound(); err != nil {
		t.Fatalf("steady round: %v", err)
	}

	// Attach keeps it alive across sweeps.
	clk.advance(45 * time.Second)
	if _, ok := m.Attach("alpha"); !ok {
		t.Fatal("attach lost a live session")
	}
	if ids := m.SweepIdle(); len(ids) != 0 {
		t.Fatalf("recently used session swept: %v", ids)
	}

	// Idle past the TTL: the sweep evicts it and tears its broker down.
	clk.advance(2 * time.Minute)
	if ids := m.SweepIdle(); len(ids) != 1 || ids[0] != "alpha" {
		t.Fatalf("sweep = %v, want [alpha]", ids)
	}
	if _, ok := ms.Broker.Subscribe("json", nil).Next(context.Background()); ok {
		t.Fatal("the evicted session's broker still delivers frames")
	}
	if _, ok := m.Attach("alpha"); ok {
		t.Fatal("attach resolved an evicted session")
	}
	if m.Len() != 0 || m.TotalMem() != 0 {
		t.Fatalf("evicted session still accounted: len=%d mem=%d", m.Len(), m.TotalMem())
	}

	// Re-attach after eviction = create again under the same ID.
	if _, err := m.Create("alpha", tinySession()); err != nil {
		t.Fatalf("re-create after eviction: %v", err)
	}

	tm := m.Tenants
	if tm.Created.Value() != 2 || tm.Evicted.Value() != 1 {
		t.Fatalf("lifecycle counters: created=%d evicted=%d", tm.Created.Value(), tm.Evicted.Value())
	}
}

// TestSessionManagerMemBudgetEviction fills the total memory budget and
// checks the least-recently-used tenant is evicted to admit the newcomer.
// Private builds keep each session's owned bytes at its full footprint, so
// the budget math stays exact; fork-based admission is exercised separately
// by the fleet-memory tests.
func TestSessionManagerMemBudgetEviction(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	probe, err := NewSessionManager(ManagerOptions{PrivateBuilds: true}, nil).Create("probe", tinySession())
	if err != nil {
		t.Fatalf("probe: %v", err)
	}
	per := probe.OwnedBytes()

	m := NewSessionManager(ManagerOptions{MemBudget: 2*per + per/2, Now: clk.now, PrivateBuilds: true}, obs.NewObserver())

	if _, err := m.Create("a", tinySession()); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Second)
	if _, err := m.Create("b", tinySession()); err != nil {
		t.Fatal(err)
	}
	clk.advance(time.Second)
	m.Attach("a") // b becomes LRU
	clk.advance(time.Second)

	if _, err := m.Create("c", tinySession()); err != nil {
		t.Fatalf("create under memory pressure: %v", err)
	}
	for id, want := range map[string]bool{"a": true, "b": false, "c": true} {
		if _, ok := m.Lookup(id); ok != want {
			t.Fatalf("%s resident = %v, want %v: the LRU session b alone is evicted", id, ok, want)
		}
	}
	if m.Len() != 2 {
		t.Fatalf("len = %d, want 2", m.Len())
	}
	if m.Tenants.Evicted.Value() != 1 {
		t.Fatalf("evicted counter = %d", m.Tenants.Evicted.Value())
	}
}

// TestSessionManagerAdmission covers the reject paths: duplicate ID,
// session-count cap, per-session footprint cap, unknown figure.
func TestSessionManagerAdmission(t *testing.T) {
	m := NewSessionManager(ManagerOptions{MaxSessions: 1, SessionBudget: 1 << 40}, obs.NewObserver())
	if _, err := m.Create("a", tinySession()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create("a", tinySession()); !errors.Is(err, ErrSessionExists) {
		t.Fatalf("duplicate ID: %v", err)
	}
	if _, err := m.Create("b", tinySession()); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("over cap: %v", err)
	}

	tight := NewSessionManager(ManagerOptions{SessionBudget: 1}, obs.NewObserver())
	if _, err := tight.Create("big", tinySession()); !errors.Is(err, ErrMemBudget) {
		t.Fatalf("over per-session budget: %v", err)
	}
	if tight.Tenants.Rejected.Value() != 1 {
		t.Fatalf("rejected counter = %d", tight.Tenants.Rejected.Value())
	}

	if _, err := m.Create("c", SessionOptions{Kernel: tinyKernel, Figures: []string{"no-such-fig"}}); err == nil {
		t.Fatal("unknown figure admitted")
	}
}

// TestSessionManagerConcurrentCreateDelete hammers create/delete of the
// same ID from many goroutines — the -race row of the lifecycle matrix.
func TestSessionManagerConcurrentCreateDelete(t *testing.T) {
	m := NewSessionManager(ManagerOptions{MaxSessions: 8}, obs.NewObserver())
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				ms, err := m.Create("contested", tinySession())
				if err != nil && !errors.Is(err, ErrSessionExists) {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if ms != nil && err == nil {
					if _, ok := m.Attach("contested"); ok {
						m.Delete("contested")
					}
				}
			}
		}(g)
	}
	// Distinct IDs churn alongside the contested one.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				id := fmt.Sprintf("own-%d-%d", g, i)
				if _, err := m.Create(id, tinySession()); err != nil {
					t.Errorf("%s: %v", id, err)
					return
				}
				m.Delete(id)
			}
		}(g)
	}
	wg.Wait()
	m.Delete("contested")
	if m.Len() != 0 {
		t.Fatalf("sessions leaked: %d resident", m.Len())
	}
	if m.TotalMem() != 0 {
		t.Fatalf("memory accounting leaked: %d bytes", m.TotalMem())
	}
}
