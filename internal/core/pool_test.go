package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRoundRobinFairness queues one session's whole backlog before a
// second session submits anything, then checks a single worker alternates
// between the two queues instead of draining the first-comer.
func TestPoolRoundRobinFairness(t *testing.T) {
	p := NewPool(1)
	defer p.Close()

	gate := make(chan struct{})
	started := make(chan struct{})
	var mu sync.Mutex
	var order []string
	record := func(key string) func() {
		return func() {
			mu.Lock()
			order = append(order, key)
			mu.Unlock()
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	p.Submit("gate", func() { close(started); <-gate; wg.Done() })
	<-started // the worker is pinned; everything below queues behind it

	const perKey = 3
	wg.Add(2 * perKey)
	for i := 0; i < perKey; i++ {
		task := record("a")
		p.Submit("a", func() { task(); wg.Done() })
	}
	for i := 0; i < perKey; i++ {
		task := record("b")
		p.Submit("b", func() { task(); wg.Done() })
	}
	close(gate)
	wg.Wait()

	if len(order) != 2*perKey {
		t.Fatalf("expected %d tasks, ran %d", 2*perKey, len(order))
	}
	// Strict alternation: session a queued its whole backlog first, yet b
	// never waits behind more than one of a's tasks.
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Fatalf("unfair schedule: %v (consecutive %q at %d)", order, order[i], i)
		}
	}
}

// TestPoolRunCompletes checks every task runs exactly once, submitted
// concurrently from many goroutines under distinct keys.
func TestPoolRunCompletes(t *testing.T) {
	p := NewPool(4)
	defer p.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		key := string(rune('a' + g))
		go func() {
			defer wg.Done()
			var ran [32]atomic.Int32
			for i := range ran {
				if err := p.Run(key, func() { ran[i].Add(1) }); err != nil {
					t.Errorf("key %s task %d: %v", key, i, err)
				}
			}
			for i := range ran {
				if ran[i].Load() != 1 {
					t.Errorf("key %s task %d ran %d times", key, i, ran[i].Load())
				}
			}
		}()
	}
	wg.Wait()
}

// TestPoolSubmitAfterClose checks shutdown never loses work: post-Close
// submissions run synchronously.
func TestPoolSubmitAfterClose(t *testing.T) {
	p := NewPool(1)
	p.Close()
	ran := false
	p.Submit("x", func() { ran = true })
	if !ran {
		t.Fatal("task submitted after Close did not run")
	}
}

// queuedKeys parks every DefaultPool worker, runs fn in the background, and
// returns the pool keys fn's work queued under (the parking key excluded)
// once fn has queued something; then it releases the workers and waits for
// fn to finish.
func queuedKeys(t *testing.T, fn func()) []string {
	t.Helper()
	p := DefaultPool()
	const park = "test:park"
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(p.workers)
	for i := 0; i < p.workers; i++ {
		p.Submit(park, func() {
			started.Done()
			<-release
		})
	}
	started.Wait()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	var keys []string
	for deadline := time.Now().Add(10 * time.Second); len(keys) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("nothing queued on the pool")
		}
		p.mu.Lock()
		for _, k := range p.ring {
			if k != park {
				keys = append(keys, k)
			}
		}
		p.mu.Unlock()
	}
	close(release)
	<-done
	return keys
}

// TestManagedSessionOnePoolKey pins one pool identity per session: a
// managed round and a fleet query over it both queue under the session's
// own key, so the pool's round-robin sees one tenant, not two.
func TestManagedSessionOnePoolKey(t *testing.T) {
	m := NewSessionManager(ManagerOptions{}, nil)
	ms, err := m.Create("solo", tinySession())
	if err != nil {
		t.Fatal(err)
	}
	fleet := &Fleet{Mgr: m}
	want := ms.Session.poolKey()
	for name, fn := range map[string]func(){
		"Round": func() {
			if _, err := ms.Round(); err != nil {
				t.Error(err)
			}
		},
		"Fleet.Query": func() {
			if _, err := fleet.Query(FleetQuery{Figure: "7-1", Query: "tasks = SELECT task_struct FROM *"}); err != nil {
				t.Error(err)
			}
		},
	} {
		if keys := queuedKeys(t, fn); len(keys) != 1 || keys[0] != want {
			t.Errorf("%s queued under %q, want only %q", name, keys, want)
		}
	}
}

// A panicking task is recovered on its worker: Run returns it as a
// *TaskPanic with the value and stack, and the pool's only worker goes on
// to serve an ordinary task.
func TestPoolRunRecoversPanic(t *testing.T) {
	p := NewPool(1)
	defer p.Close()

	err := p.Run("k", func() {
		var m map[string]int
		m["boom"]++ // a nil-map write: a runtime panic, as a bug would raise
	})
	var tp *TaskPanic
	if !errors.As(err, &tp) {
		t.Fatalf("Run returned %v, want a *TaskPanic", err)
	}
	if !strings.Contains(fmt.Sprint(tp.Value), "nil map") || !strings.Contains(string(tp.Stack), "TestPoolRunRecoversPanic") {
		t.Fatalf("panic value %v, stack:\n%s", tp.Value, tp.Stack)
	}

	var ran atomic.Int32
	done := make(chan error, 1)
	go func() { done <- p.Run("k", func() { ran.Add(1) }) }()
	select {
	case err := <-done:
		if err != nil || ran.Load() != 1 {
			t.Fatalf("ordinary task after the panic: err %v, ran %d", err, ran.Load())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the pool's worker did not survive the panic")
	}

	// Tasks panicking on several workers at once: each Run returns its
	// own task's panic.
	wide := NewPool(4)
	defer wide.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tp *TaskPanic
			if err := wide.Run("k", func() { panic(i) }); !errors.As(err, &tp) || tp.Value != i {
				t.Errorf("concurrent panic %d: Run returned %v", i, err)
			}
		}()
	}
	wg.Wait()
}
