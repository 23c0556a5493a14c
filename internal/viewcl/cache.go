package viewcl

import (
	"container/list"
	"sync"

	"visualinux/internal/ctypes"
)

// Process-wide caches behind the compiled path. Figure programs are static
// strings re-run on every stop event in every session, so both the parsed
// AST and the lowered closure chains are shared across the whole process:
// 64 sessions running the stdlib cost one Parse and one lower total. Both
// caches are LRU-bounded because not every program is a static figure —
// vchat/viewql round-trips generate fresh sources per request, and an
// unbounded map would grow with every conversational turn the server ever
// served.

// lruCache is a mutex-guarded LRU with hit/miss/eviction counters.
// Values are immutable once inserted, so returning them outside the lock
// is safe.
type lruCache struct {
	mu     sync.Mutex
	cap    int
	m      map[any]*list.Element
	order  *list.List // front = most recently used
	hits   uint64
	misses uint64
	evicts uint64
}

type lruEntry struct {
	key any
	val any
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{cap: capacity, m: make(map[any]*list.Element), order: list.New()}
}

func (c *lruCache) get(key any) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.hits++
		c.order.MoveToFront(el)
		return el.Value.(*lruEntry).val, true
	}
	c.misses++
	return nil, false
}

// add inserts key -> val, returning the canonical value (an existing entry
// wins a racing insert so every caller shares one instance).
func (c *lruCache) add(key, val any) any {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*lruEntry).val
	}
	c.m[key] = c.order.PushFront(&lruEntry{key: key, val: val})
	for c.cap > 0 && c.order.Len() > c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.m, back.Value.(*lruEntry).key)
		c.evicts++
	}
	return val
}

func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

func (c *lruCache) stats() (hits, misses, evicts uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evicts
}

// setCap rebounds the cache, evicting down to the new capacity, and
// returns the previous capacity. Tests shrink the cap to force churn.
func (c *lruCache) setCap(capacity int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.cap
	c.cap = capacity
	for c.cap > 0 && c.order.Len() > c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.m, back.Value.(*lruEntry).key)
		c.evicts++
	}
	return old
}

// DefaultParseCacheCap bounds the process-wide parse cache. The stdlib is a
// few dozen figure programs; the rest of the budget absorbs dynamically
// generated vchat/viewql sources without letting them accumulate forever.
const DefaultParseCacheCap = 256

var parseCache = newLRUCache(DefaultParseCacheCap)

// ParseCached is Parse behind a process-wide LRU cache keyed by
// (name, source). The returned Program is shared: callers must treat it as
// immutable. Both engines do — a ${...} escape's parsed form lives with the
// engine that runs it, never on the AST.
func ParseCached(name, src string) (*Program, error) {
	key := name + "\x00" + src
	if p, ok := parseCache.get(key); ok {
		return p.(*Program), nil
	}
	p, err := Parse(name, src)
	if err != nil {
		return nil, err
	}
	return parseCache.add(key, p).(*Program), nil
}

// ParseCacheStats reports the parse cache's lifetime hit/miss/eviction
// counters (misses count actual Parse calls served through ParseCached).
func ParseCacheStats() (hits, misses, evictions uint64) {
	return parseCache.stats()
}

// ParseCacheLen reports how many parsed programs the cache currently holds.
func ParseCacheLen() int { return parseCache.len() }

// SetParseCacheCap rebounds the parse cache (evicting down if needed) and
// returns the previous capacity. Intended for tests that force churn.
func SetParseCacheCap(n int) int { return parseCache.setCap(n) }

// DefaultCompileCacheCap bounds the shared compiled-program cache. Entries
// are keyed by the parsed *Program, so the useful population tracks the
// parse cache; a matching bound keeps a dynamically generated program from
// pinning its closure chains after its AST has already been evicted.
const DefaultCompileCacheCap = 256

// compileKey identifies one lowered program: the shared AST plus the type
// registry its offsets were resolved against. Sessions over the same
// simulated kernel share both, so they share the lowering too.
type compileKey struct {
	prog *Program
	reg  *ctypes.Registry
}

// compileCache shares lowered programs across interpreters. Lowering reads
// only the type registry (keyed) and the defining interpreter's definition
// table (a prefetch-hint fallback for names defined outside the program),
// while every runtime closure resolves mutable state through the *running*
// interpreter — so interpreters that load the same definition library, as
// every session-fabric session does, can safely execute one shared chain.
type compileCache struct {
	lru    *lruCache
	mu     sync.Mutex // serializes lowering so a program lowers exactly once
	lowers uint64
}

var sharedCompiles = &compileCache{lru: newLRUCache(DefaultCompileCacheCap)}

func (cc *compileCache) get(in *Interp, prog *Program) (*compiledProgram, error) {
	var reg *ctypes.Registry
	if in.Env != nil {
		reg = in.Env.Types()
	}
	key := compileKey{prog: prog, reg: reg}
	if cp, ok := cc.lru.get(key); ok {
		return cp.(*compiledProgram), nil
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cp, ok := cc.lru.get(key); ok {
		return cp.(*compiledProgram), nil
	}
	cp, err := in.lower(prog)
	if err != nil {
		return nil, err
	}
	cc.lowers++
	return cc.lru.add(key, cp).(*compiledProgram), nil
}

// CompileCount reports how many program lowerings the process has performed
// through the shared cache — the "parsed and compiled once, not per
// session" proof the multi-tenant acceptance test asserts on.
func CompileCount() uint64 {
	sharedCompiles.mu.Lock()
	defer sharedCompiles.mu.Unlock()
	return sharedCompiles.lowers
}
