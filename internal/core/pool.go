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

// Run executes task(0..n-1) on the pool under key with at most limit of
// them in flight at once (limit <= 0 means no per-call cap beyond the
// pool's worker count), and returns when all have completed. The cap is
// enforced by completion-driven dispatch — a finishing task enqueues its
// successor — so a capped call never parks a pool worker on a semaphore.
//
// A task that panics is recovered on its worker, which lives on, and the
// remaining tasks still run; Run then returns the first panic as a
// *TaskPanic.
func (p *Pool) Run(key string, n, limit int, task func(int)) error {
	if n <= 0 {
		return nil
	}
	if limit <= 0 || limit > n {
		limit = n
	}
	var wg sync.WaitGroup
	wg.Add(n)
	var mu sync.Mutex
	next := 0
	var panicked *TaskPanic
	var launch func()
	launch = func() {
		mu.Lock()
		if next >= n {
			mu.Unlock()
			return
		}
		i := next
		next++
		mu.Unlock()
		p.Submit(key, func() {
			defer func() {
				if v := recover(); v != nil {
					mu.Lock()
					if panicked == nil {
						panicked = &TaskPanic{Value: v, Stack: debug.Stack()}
					}
					mu.Unlock()
				}
				wg.Done()
				launch()
			}()
			task(i)
		})
	}
	for i := 0; i < limit; i++ {
		launch()
	}
	wg.Wait()
	if panicked != nil {
		return panicked
	}
	return nil
}

// Pending reports the number of queued (not yet running) tasks.
func (p *Pool) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, q := range p.queues {
		n += len(q)
	}
	return n
}

// Close stops the workers once the queues drain. Submissions after Close
// run synchronously in the caller.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}
