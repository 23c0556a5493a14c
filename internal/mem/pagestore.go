// Copy-on-write page sharing for session fleets.
//
// A PageStore is the process-wide analogue of KSM plus the page cache: a
// refcounted, content-addressed pool of immutable 4 KiB pages. A Memory that
// has been sealed into a store holds references to store pages instead of
// private copies; Fork clones a sealed Memory in O(pages) map inserts without
// copying a single page, and the first Write to a shared page breaks sharing
// for that page only (CoW), exactly like a forked process faulting on a
// written page.
//
// Refcounts use atomics so readers (owned-bytes accounting, gauges) never
// take the store lock; the lock guards only the hash buckets on intern and
// on release-to-zero.
package mem

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// SharedPage is one immutable, refcounted page in a PageStore. Its data must
// never be written after interning — every holder may alias it, including
// snapshot caches in other sessions.
type SharedPage struct {
	data []byte // len == PageSize, immutable after intern
	hash uint64
	refs atomic.Int64
}

// Refs returns the current reference count.
func (p *SharedPage) Refs() int64 { return p.refs.Load() }

// PageStore is a content-addressed pool of shared pages. The zero value is
// not usable; call NewPageStore.
type PageStore struct {
	mu      sync.Mutex
	buckets map[uint64][]*SharedPage

	uniquePages atomic.Int64  // distinct pages resident
	totalRefs   atomic.Int64  // sum of refcounts (mapped shared pages fleet-wide)
	dedupHits   atomic.Uint64 // interns that matched an existing page
	interns     atomic.Uint64 // total intern calls
	cowBreaks   atomic.Uint64 // shared pages privatized by a write
}

// NewPageStore returns an empty store.
func NewPageStore() *PageStore {
	return &PageStore{buckets: make(map[uint64][]*SharedPage)}
}

// pageHash is FNV-1a over the page contents: cheap, deterministic, and good
// enough given interning always confirms with a byte compare.
func pageHash(data []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// intern adds data (len PageSize) to the store, deduplicating against
// resident pages by hash + byte compare. On a miss the store takes ownership
// of the slice; on a hit the slice is dropped and the resident page gains a
// reference. Either way the caller holds one reference on the result.
func (s *PageStore) intern(data []byte) *SharedPage {
	h := pageHash(data)
	s.interns.Add(1)
	s.mu.Lock()
	for _, p := range s.buckets[h] {
		if bytes.Equal(p.data, data) {
			p.refs.Add(1)
			s.mu.Unlock()
			s.dedupHits.Add(1)
			s.totalRefs.Add(1)
			return p
		}
	}
	p := &SharedPage{data: data, hash: h}
	p.refs.Store(1)
	s.buckets[h] = append(s.buckets[h], p)
	s.mu.Unlock()
	s.uniquePages.Add(1)
	s.totalRefs.Add(1)
	return p
}

// retain adds a reference to p. The caller must already hold a reference
// (a page can never be revived from zero), so no lock is needed.
func (s *PageStore) retain(p *SharedPage) {
	p.refs.Add(1)
	s.totalRefs.Add(1)
}

// release drops one reference; the last release evicts the page from the
// store so its bytes become reclaimable once aliasing snapshots let go.
func (s *PageStore) release(p *SharedPage) {
	s.totalRefs.Add(-1)
	if p.refs.Add(-1) != 0 {
		return
	}
	s.mu.Lock()
	// Refs can only grow via retain (which requires a live reference) or
	// intern (under s.mu). Refs hit zero, so no retain can race; re-check
	// under the lock only to serialize against a concurrent intern that
	// matched this page before we evict it.
	if p.refs.Load() != 0 {
		s.mu.Unlock()
		return
	}
	bucket := s.buckets[p.hash]
	for i, q := range bucket {
		if q == p {
			bucket[i] = bucket[len(bucket)-1]
			s.buckets[p.hash] = bucket[:len(bucket)-1]
			s.uniquePages.Add(-1)
			break
		}
	}
	if len(s.buckets[p.hash]) == 0 {
		delete(s.buckets, p.hash)
	}
	s.mu.Unlock()
}

// StoreStats is a point-in-time snapshot of a store's dedup effectiveness.
type StoreStats struct {
	UniquePages int64  // distinct pages resident
	UniqueBytes uint64 // UniquePages * PageSize
	TotalRefs   int64  // sum of refcounts across memories
	SharedBytes uint64 // TotalRefs * PageSize: bytes mapped if nothing were shared
	DedupHits   uint64 // interns satisfied by an existing page
	Interns     uint64 // total intern calls
	CowBreaks   uint64 // shared pages privatized by writes
}

// Stats returns current counters. Lock-free; values are individually atomic
// (the snapshot may be torn across fields under concurrent churn).
func (s *PageStore) Stats() StoreStats {
	up := s.uniquePages.Load()
	tr := s.totalRefs.Load()
	return StoreStats{
		UniquePages: up,
		UniqueBytes: uint64(up) * PageSize,
		TotalRefs:   tr,
		SharedBytes: uint64(tr) * PageSize,
		DedupHits:   s.dedupHits.Load(),
		Interns:     s.interns.Load(),
		CowBreaks:   s.cowBreaks.Load(),
	}
}
