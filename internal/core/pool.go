package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Pool is the process-wide extraction worker pool. Work is submitted under a
// key — one key per session — and dispatched round-robin across keys, so a
// session that floods the pool with figures only ever gets its fair share of
// workers: with S active sessions and W workers, each session advances at
// ~W/S tasks at a time no matter how deep its own queue is. This replaces
// the per-call goroutine pools that used to let a single busy session
// commandeer GOMAXPROCS workers per request, N requests deep.
//
// Tasks must not block on the pool themselves (no nested Run from inside a
// task): workers are a fixed population and a task waiting for pool
// capacity would deadlock under full load.
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queues  map[string][]func()
	ring    []string // keys with pending work, round-robin order
	next    int      // ring cursor: next key to serve
	closed  bool
	workers int // the fixed worker population
}

// NewPool starts a pool with the given number of workers (<= 0 means
// GOMAXPROCS).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{queues: make(map[string][]func()), workers: workers}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

var (
	defaultPoolOnce sync.Once
	defaultPool     *Pool
)

// DefaultPool returns the shared process pool (GOMAXPROCS workers), started
// on first use. Every managed-session round and fleet fan-out in the
// process funnels through it, which is what makes the fairness guarantee
// global rather than per-API.
func DefaultPool() *Pool {
	defaultPoolOnce.Do(func() { defaultPool = NewPool(0) })
	return defaultPool
}

func (p *Pool) worker() {
	for {
		task, ok := p.take()
		if !ok {
			return
		}
		task()
	}
}

// take blocks for the next task, serving keys round-robin.
func (p *Pool) take() (func(), bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.ring) == 0 && !p.closed {
		p.cond.Wait()
	}
	if len(p.ring) == 0 {
		return nil, false // closed and drained
	}
	if p.next >= len(p.ring) {
		p.next = 0
	}
	key := p.ring[p.next]
	q := p.queues[key]
	task := q[0]
	if len(q) == 1 {
		delete(p.queues, key)
		p.ring = append(p.ring[:p.next], p.ring[p.next+1:]...)
		// next now indexes the following key; no advance needed.
	} else {
		p.queues[key] = q[1:]
		p.next++
	}
	return task, true
}

// Submit enqueues task under key and returns immediately. After Close,
// tasks run synchronously in the caller (shutdown never loses work).
func (p *Pool) Submit(key string, task func()) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		task()
		return
	}
	if _, ok := p.queues[key]; !ok {
		p.ring = append(p.ring, key)
	}
	p.queues[key] = append(p.queues[key], task)
	p.mu.Unlock()
	p.cond.Signal()
}

// TaskPanic is a pool task's recovered panic: the value it panicked with
// and the stack of the goroutine at the point of the panic.
type TaskPanic struct {
	Value any
	Stack []byte
}

func (p *TaskPanic) Error() string { return fmt.Sprintf("task panicked: %v", p.Value) }

// Run executes task on the pool under key and returns when it has
// completed. A task that panics is recovered on its worker, which lives
// on, and Run returns the panic as a *TaskPanic.
func (p *Pool) Run(key string, task func()) error {
	done := make(chan *TaskPanic, 1)
	p.Submit(key, func() {
		defer func() {
			var tp *TaskPanic
			if v := recover(); v != nil {
				tp = &TaskPanic{Value: v, Stack: debug.Stack()}
			}
			done <- tp
		}()
		task()
	})
	if tp := <-done; tp != nil {
		return tp
	}
	return nil
}

// Close stops the workers once the queues drain. Submissions after Close
// run synchronously in the caller.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}
