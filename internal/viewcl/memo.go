package viewcl

import (
	"sync"

	"visualinux/internal/graph"
	"visualinux/internal/target"
)

// The cross-run extraction memo: boxes survive from one stop event to the
// next, keyed by definition+address, and are reused verbatim when the bytes
// they were built from are provably unchanged. This is the viewcl half of
// the incremental pipeline — the snapshot layer proves "unchanged" cheaply
// (write journal or content hashes instead of refetching), and the memo
// turns that proof into skipped box materializations.

// GenValidator is the fast cleanliness oracle a generation-tagged snapshot
// provides (see target.Snapshot): RangesUnchangedSince revalidates lazily
// and answers from per-page change generations, so a clean object costs a
// hash exchange instead of a refetch — and nothing at all when the write
// journal already promoted its pages.
type GenValidator interface {
	Generation() uint64
	RangesUnchangedSince(ranges []target.Range, since uint64) bool
}

// childRef names one box materialized directly inside a memoized box's
// frame, in evaluation order. Reuse replays these so every ID the reused
// box's items reference exists in the output graph, and so virtual-box
// counters advance exactly as they would in a cold run.
type childRef struct {
	def  string
	addr uint64
}

// memoFrame is the per-materialization recording scope. Reads land in the
// innermost frame only: a child box's reads belong to the child's entry,
// not the parent's, so each entry verifies exactly the bytes its own items
// rendered.
type memoFrame struct {
	reads    []target.Range // own-frame reads, in evaluation order
	sum      uint64         // FNV-1a over own-frame read bytes, in order
	children []childRef     // direct materialize calls, in order
	tainted  bool           // consumed a nondeterministic '#N' identity
}

func newMemoFrame() *memoFrame { return &memoFrame{sum: target.NewHashSum()} }

// taint marks the frame unreusable. Nil-safe: runs without a Memo skip frame
// allocation entirely and pass nil frames through the build path.
func (fr *memoFrame) taint() {
	if fr != nil {
		fr.tainted = true
	}
}

// memoEntry is one cached box: a pristine clone plus everything needed to
// prove it still matches target memory and to rebuild its subgraph.
type memoEntry struct {
	box      *graph.Box
	reads    []target.Range // recorded order — the hash replay sequence
	merged   []target.Range // merged, for validator checks and read sets
	sum      uint64
	gen      uint64 // validator generation at record / last verification
	children []childRef
}

// MemoStats reports memo effectiveness for tests and the bench harness.
type MemoStats struct {
	Reuses       uint64 // verified entries served as clones
	Rejects      uint64 // entries invalidated by changed content
	HashVerifies uint64 // verifications that fell back to byte hashing
}

// Memo caches extracted boxes across interpreter runs. It verifies through
// base — the same (snapshot-backed, latency-priced) chain extraction reads
// through — so revalidation costs exactly what the paper's model says a
// hash exchange costs, and fast-paths verification through a GenValidator
// found anywhere in base's wrapper chain. One run at a time; the mutex only
// guards against concurrent inspection.
type Memo struct {
	base    target.Target
	val     GenValidator
	mu      sync.Mutex
	entries map[memoKey]*memoEntry
	stats   MemoStats
}

// NewMemo creates an empty memo verifying against base. The generation
// fast path engages automatically when a GenValidator (target.Snapshot)
// sits anywhere in base's wrapper chain.
func NewMemo(base target.Target) *Memo {
	m := &Memo{base: base, entries: make(map[memoKey]*memoEntry)}
	m.val, _ = target.Find[GenValidator](base)
	return m
}

// Len reports the number of cached boxes.
func (m *Memo) Len() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Stats returns a snapshot of the memo's effectiveness counters.
func (m *Memo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

func (m *Memo) lookup(key memoKey) *memoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.entries[key]
}

func (m *Memo) store(key memoKey, b *graph.Box, fr *memoFrame) {
	e := &memoEntry{
		box:      b.Clone(),
		reads:    fr.reads,
		merged:   target.MergeRanges(append([]target.Range(nil), fr.reads...)),
		sum:      fr.sum,
		children: fr.children,
	}
	if m.val != nil {
		e.gen = m.val.Generation()
	}
	m.mu.Lock()
	m.entries[key] = e
	m.mu.Unlock()
}

// verify proves e's bytes are unchanged since it was recorded. Fast path:
// the snapshot's per-page change generations (free for journal-promoted
// pages, one hash exchange for stale ones). Fallback — no validator, or a
// page-granular change that may not overlap this box — re-reads the
// recorded ranges through the cache and compares content sums. A content
// mismatch drops the entry so the rebuild re-records it.
func (m *Memo) verify(key memoKey, e *memoEntry) bool {
	if m.val != nil {
		gen := m.val.Generation()
		if e.gen == gen {
			return true
		}
		if m.val.RangesUnchangedSince(e.merged, e.gen) {
			e.gen = gen
			return true
		}
	}
	m.mu.Lock()
	m.stats.HashVerifies++
	m.mu.Unlock()
	if sum, err := target.SumRanges(m.base, e.reads); err != nil || sum != e.sum {
		m.reject(key)
		return false
	}
	if m.val != nil {
		e.gen = m.val.Generation()
	}
	return true
}

func (m *Memo) reject(key memoKey) {
	m.mu.Lock()
	delete(m.entries, key)
	m.stats.Rejects++
	m.mu.Unlock()
}

func (m *Memo) noteReuse() {
	m.mu.Lock()
	m.stats.Reuses++
	m.mu.Unlock()
}

// recorder wraps the extraction target during a memoizing run, mirroring
// every read into the innermost recording frame, the run-level read list
// and the run-level page set. A failed read is recorded too: the output
// depends on its failure, and its range cannot verify while it stays
// unreadable, so nothing built on it is reused. It declares nothing else:
// prefetch, the memory map and every other capability are found below it
// (target.Find), so the coalesced fill paths the cold-run numbers depend on
// stay reachable.
type recorder struct {
	target.Layer
	run *runState
}

func (t *recorder) ReadMemory(addr uint64, buf []byte) error {
	err := t.Target.ReadMemory(addr, buf)
	if len(buf) > 0 {
		t.run.recordRead(addr, buf, err == nil)
	}
	return err
}
