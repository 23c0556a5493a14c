package target

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"visualinux/internal/obs"
)

// PageSize is the granularity of the snapshot read cache: 4 KiB, the guest
// page size, which also matches the simulated memory's mapping granularity
// (so a page is either fully readable or fully absent).
const PageSize = 4096

// spage is one cached page plus its incremental-validation state.
type spage struct {
	data []byte
	// gen is the snapshot generation this page was last known valid for.
	// A page whose gen lags the snapshot's is stale: its bytes are kept but
	// must be revalidated (by dirty-range journal or content hash) before
	// they may be served again.
	gen uint64
	// changed is the generation at which this page's content last actually
	// differed — the figure-level delta check compares it against the
	// generation a figure was extracted at.
	changed uint64
	// dirty flags SubPage blocks the write journal reported mutated since
	// the page was last validated; they are refetched (just those blocks,
	// not the page) on next access.
	dirty uint16
	// aliased marks data as a zero-copy reference into the sim's immutable
	// CoW page store rather than cache-owned bytes. Aliased data must never
	// be written in place: any refetch that finds changed content privatizes
	// the page first (unalias), mirroring the store's own CoW discipline.
	aliased bool
}

// unalias gives p cache-owned backing so refetch paths may write into it.
func (p *spage) unalias() {
	if p.aliased {
		p.data = append(make([]byte, 0, PageSize), p.data...)
		p.aliased = false
	}
}

// Snapshot is a page-granular read-through cache over any Target. Within one
// stop event every page needs at most one fetch; across stop events the
// cache is generation-tagged: Advance (the incremental resume boundary)
// makes pages stale instead of dropping them, and stale pages are
// revalidated lazily on next access —
//
//   - pages the target's write journal (DirtySince) covers are promoted for
//     free, with only journal-flagged SubPage blocks refetched;
//   - otherwise content hashes (HashBlocks) are exchanged and only
//     mismatching blocks refetched;
//   - a chain with neither capability refetches whole stale pages, which is
//     still never worse than the old drop-everything Invalidate.
//
// Invalidate keeps its wholesale semantics for callers that really want a
// cold cache.
//
// Layered over a Latency (or a real RSP link), a Snapshot converts the
// many small field reads of an extraction into a few page-sized
// transactions: cache hits cost zero modeled link time. Contiguous missing
// pages are fetched in one coalesced transaction, so Prefetch of a
// multi-page object costs one round trip, not one per page.
//
// A Snapshot is safe for concurrent readers (parallel pane extraction over
// one stop event).
type Snapshot struct {
	Layer
	stats Stats

	// provider is the chain's zero-copy capability, resolved once: non-nil
	// when the underlying target can hand out stable immutable page slices
	// (a sim backed by a CoW page store). Cache fills then alias store pages
	// instead of copying them, so a fleet of sessions forked from one
	// template shares snapshot cache bytes too, not just guest memory.
	provider PageProvider

	mu    sync.RWMutex
	pages map[uint64]*spage
	gen   uint64 // current generation; bumped by Advance and Invalidate
	// dirtyMark is the write-journal cursor of the last Advance; dirtyOK
	// records whether the chain answered the last poll (the graceful
	// degradation bit: false means hash revalidation carries the load).
	dirtyMark uint64
	dirtyOK   bool

	// tracer, when attached (per extraction, via AttachTracer), makes the
	// revalidation ladder visible in the round's span tree: hash exchanges,
	// journal-flagged block refetches and whole-page stale refetches emit
	// snapshot.* spans, with the underlying link reads nested inside them.
	// Without these spans, revalidation cost hides inside whichever box
	// span happened to trigger it — the blind spot that made span-driven
	// diagnosis misattribute steady-state rounds to graph build.
	tracer atomic.Pointer[obs.Tracer]

	hits          atomic.Uint64 // page lookups served from cache
	misses        atomic.Uint64 // pages fetched cold from the underlying target
	invalidations atomic.Uint64 // Invalidate calls (wholesale drops)
	batchRuns     atomic.Uint64 // coalesced batch-prefetch fills issued
	advances      atomic.Uint64 // Advance calls (incremental stop boundaries)
	revalidations atomic.Uint64 // stale pages revalidated by content hash
	promotions    atomic.Uint64 // stale pages promoted clean by the write journal
	staleRefetch  atomic.Uint64 // stale pages refetched whole (no hash capability)
	subFills      atomic.Uint64 // sub-page block-run refetches issued
	subBytes      atomic.Uint64 // bytes moved by sub-page refetches
	zeroCopy      atomic.Uint64 // pages filled by aliasing store pages (no copy)

	// Observer counter handles (nil-safe when uninstrumented): the same
	// events as the atomic fields above, but aggregated process-wide so
	// every snapshot in every worker feeds one /debug/metrics view.
	mHits, mMisses, mFills, mInval, mBatchRuns        *obs.Counter
	mAdvances, mReval, mPromoted, mStaleRef, mSubFill *obs.Counter
	mZeroCopy                                         *obs.Counter
}

// NewSnapshot wraps t with a fresh, empty cache. If the chain journals
// writes, the journal cursor is armed here — before anything is cached — so
// the first Advance can promote pages the journal proves untouched.
func NewSnapshot(t Target) *Snapshot {
	s := &Snapshot{Layer: Layer{t}, pages: make(map[uint64]*spage), gen: 1}
	if pp, ok := Find[PageProvider](t); ok {
		s.provider = pp
	}
	if _, next, ok := DirtySince(t, ^uint64(0)); ok {
		s.dirtyMark, s.dirtyOK = next, true
	}
	return s
}

// Instrument mirrors the snapshot's cache events into the observer's
// shared counters (hit/miss/fill/invalidation series plus the derived
// hit-ratio gauge). Multiple snapshots may feed one observer; the series
// aggregate.
func (s *Snapshot) Instrument(o *obs.Observer) *Snapshot {
	if o != nil {
		s.mHits, s.mMisses, s.mFills, s.mInval = o.SnapHits, o.SnapMisses, o.SnapFills, o.SnapInvalidations
		s.mBatchRuns = o.BatchPrefetchRuns
		s.mAdvances, s.mReval = o.SnapAdvances, o.SnapRevalidations
		s.mPromoted, s.mStaleRef, s.mSubFill = o.SnapPromotions, o.SnapStaleRefetches, o.SnapSubpageFills
		s.mZeroCopy = o.SnapZeroCopyFills
	}
	return s
}

// SetTracer attaches (or, with nil, detaches) the per-extraction tracer
// that receives snapshot.* revalidation spans. Implements obs.TracerCarrier,
// so target.AttachTracer reaches it through the chain walk.
func (s *Snapshot) SetTracer(tr *obs.Tracer) { s.tracer.Store(tr) }

// span opens a revalidation span on the attached tracer (nil-safe no-op
// when no extraction is being traced).
func (s *Snapshot) span(name string) *obs.Span {
	return s.tracer.Load().StartSpan(name)
}

// Invalidate drops every cached page — the wholesale (pre-incremental)
// resume semantics, still right when the target reattached or the journal
// is known garbage.
func (s *Snapshot) Invalidate() {
	s.mu.Lock()
	s.pages = make(map[uint64]*spage)
	s.gen++
	s.mu.Unlock()
	s.invalidations.Add(1)
	s.mInval.Inc()
}

// Advance is the incremental stop-event boundary: the target ran and
// stopped again. Cached pages become stale rather than gone. When the
// chain's write journal can answer "what changed since the last stop",
// untouched pages are promoted to the new generation immediately (zero link
// traffic) and touched pages have exactly the mutated SubPage blocks
// flagged for refetch; otherwise every page stays stale and is lazily
// revalidated by content hash on next access.
func (s *Snapshot) Advance() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	s.advances.Add(1)
	s.mAdvances.Inc()

	var dirty []Range
	if s.dirtyOK {
		ranges, next, ok := DirtySince(s.Target, s.dirtyMark)
		if ok {
			dirty, s.dirtyMark = ranges, next
		} else {
			s.dirtyOK = false
		}
	}
	if !s.dirtyOK {
		// Journal unavailable or history lost: leave every page stale for
		// hash revalidation, and re-arm the cursor so the NEXT stop can use
		// the fast path again.
		if _, next, ok := DirtySince(s.Target, ^uint64(0)); ok {
			s.dirtyMark, s.dirtyOK = next, true
		}
		return
	}

	// Journal answered: flag mutated blocks, promote everything else.
	flagged := make(map[uint64]uint16)
	for _, r := range dirty {
		if r.Size == 0 {
			continue
		}
		if r.Addr+r.Size-1 < r.Addr {
			r.Size = -r.Addr
		}
		firstB := r.Addr / SubPage
		lastB := (r.Addr + r.Size - 1) / SubPage
		for b := firstB; ; b++ {
			flagged[(b*SubPage)&^(PageSize-1)] |= 1 << (b % BlocksPerPage)
			if b == lastB {
				break
			}
		}
	}
	for base, p := range s.pages {
		if p.gen != s.gen-1 {
			// The page was already stale before this stop (a journal gap in
			// its past): promotion would skip revalidating that older gap.
			continue
		}
		p.gen = s.gen
		if bits, hit := flagged[base]; hit {
			p.dirty |= bits
		} else {
			s.promotions.Add(1)
			s.mPromoted.Inc()
		}
	}
}

// Generation returns the current snapshot generation.
func (s *Snapshot) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen
}

// RangesUnchangedSince revalidates the pages covering the given ranges and
// reports whether all of their content is unchanged since generation
// `since`; it stops at the first page that changed. This is the free first
// check of the figure-level delta (a figure whose page-granular read set is
// clean needs no re-extraction at all) and of the memo's box verification.
// It is page-granular: one write anywhere in a page fails it, and callers
// then compare content sums over their exact ranges (SumRanges). The
// revalidation work is the cheap kind (journal promotion or hash exchange)
// and is shared with any read that follows.
func (s *Snapshot) RangesUnchangedSince(ranges []Range, since uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range ranges {
		if r.Size == 0 {
			continue
		}
		if r.Addr+r.Size-1 < r.Addr {
			r.Size = -r.Addr
		}
		first := r.Addr &^ (PageSize - 1)
		last := (r.Addr + r.Size - 1) &^ (PageSize - 1)
		if err := s.validateLocked(first, last); err != nil {
			return false
		}
		for base := first; ; base += PageSize {
			p := s.pages[base]
			if p == nil || p.changed > since {
				return false
			}
			if base == last {
				break
			}
		}
	}
	return true
}

// CacheStats returns page-granular hit/miss counts.
func (s *Snapshot) CacheStats() (hits, misses uint64) {
	return s.hits.Load(), s.misses.Load()
}

// Invalidations reports how many times the cache has been dropped wholesale.
func (s *Snapshot) Invalidations() uint64 { return s.invalidations.Load() }

// Advances reports how many incremental stop boundaries the cache crossed.
func (s *Snapshot) Advances() uint64 { return s.advances.Load() }

// Revalidations reports stale pages revalidated via content hashes.
func (s *Snapshot) Revalidations() uint64 { return s.revalidations.Load() }

// Promotions reports stale pages promoted clean by the write journal.
func (s *Snapshot) Promotions() uint64 { return s.promotions.Load() }

// StaleRefetches reports stale pages refetched whole (no hash capability).
func (s *Snapshot) StaleRefetches() uint64 { return s.staleRefetch.Load() }

// SubpageFills returns the count of sub-page block-run refetches and the
// bytes they moved — the adaptive-granularity win for sparse pages.
func (s *Snapshot) SubpageFills() (runs, bytes uint64) {
	return s.subFills.Load(), s.subBytes.Load()
}

// BatchRuns reports how many coalesced batch-prefetch fills were issued.
func (s *Snapshot) BatchRuns() uint64 { return s.batchRuns.Load() }

// ZeroCopyFills reports pages filled by aliasing immutable store pages
// instead of copying them through the link.
func (s *Snapshot) ZeroCopyFills() uint64 { return s.zeroCopy.Load() }

// HitRatio reports the fraction of page lookups served from cache
// (0 when nothing has been looked up yet).
func (s *Snapshot) HitRatio() float64 {
	h, m := s.hits.Load(), s.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// current reports whether p may be served at generation gen without
// revalidation.
func (p *spage) current(gen uint64) bool { return p != nil && p.gen == gen && p.dirty == 0 }

// ReadMemory implements Target, serving from cached pages and filling
// misses through the underlying target.
func (s *Snapshot) ReadMemory(addr uint64, buf []byte) error {
	s.stats.CountRead(len(buf))
	if len(buf) == 0 {
		return nil
	}
	if err := s.ensure(addr, uint64(len(buf))); err != nil {
		// A page in the range is unreadable. Degrade to a direct read of
		// exactly the requested range so error semantics match the
		// underlying target (partial ranges fail there too).
		return s.Target.ReadMemory(addr, buf)
	}
	s.mu.RLock()
	resident := true
	for n := 0; n < len(buf) && resident; {
		cur := addr + uint64(n)
		p := s.pages[cur&^(PageSize-1)]
		if !p.current(s.gen) {
			resident = false // raced with Invalidate/Advance
			break
		}
		n += copy(buf[n:], p.data[cur&(PageSize-1):])
	}
	s.mu.RUnlock()
	if !resident {
		return s.Target.ReadMemory(addr, buf)
	}
	return nil
}

// Prefetch implements Prefetcher: it pulls the page range covering
// [addr, addr+size) into the cache, coalescing adjacent missing pages into
// single large transactions. Errors are swallowed — unreadable stretches
// simply stay uncached and fail later at the precise read that needs them.
func (s *Snapshot) Prefetch(addr, size uint64) {
	if size == 0 {
		return
	}
	_ = s.ensure(addr, size)
}

// maxBatchRun bounds one coalesced batch-prefetch fill: merged element runs
// longer than this (large arrays, whole slabs) are split so a single fill
// never exceeds the link's appetite.
const maxBatchRun = 256 << 10

// PrefetchRanges implements BatchPrefetcher: the cross-element batch pass.
// Every range a container walk yielded is page-aligned, sorted, and merged —
// adjacent elements' page runs (array slots, contiguous slab objects) become
// single fills — and each merged run is then filled like Prefetch would,
// clipped to the target's memory map when it exposes one. One unmapped page
// inside a merged run therefore costs only itself, never the whole fill.
func (s *Snapshot) PrefetchRanges(ranges []Range) {
	type span struct{ first, last uint64 } // inclusive page bases
	spans := make([]span, 0, len(ranges))
	for _, r := range ranges {
		if r.Size == 0 {
			continue
		}
		if r.Addr+r.Size-1 < r.Addr {
			r.Size = -r.Addr // clamp a wrapping range at the top
		}
		spans = append(spans, span{r.Addr &^ (PageSize - 1), (r.Addr + r.Size - 1) &^ (PageSize - 1)})
	}
	if len(spans) == 0 {
		return
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].first < spans[j].first })
	merged := spans[:1]
	for _, sp := range spans[1:] {
		cur := &merged[len(merged)-1]
		if cur.last+PageSize > cur.last && sp.first <= cur.last+PageSize {
			if sp.last > cur.last {
				cur.last = sp.last
			}
		} else {
			merged = append(merged, sp)
		}
	}
	for _, sp := range merged {
		for base := sp.first; ; {
			end := sp.last
			if end-base >= maxBatchRun {
				end = base + maxBatchRun - PageSize
			}
			s.prefetchRun(base, end)
			if end == sp.last {
				break
			}
			base = end + PageSize
		}
	}
}

// prefetchRun is one batch fill of the pages [first, last]: residency is
// checked under the read lock, and only a run that actually misses (or needs
// revalidation) counts as a batch run and reaches the link.
func (s *Snapshot) prefetchRun(first, last uint64) {
	s.mu.RLock()
	missing := false
	for base := first; ; base += PageSize {
		if s.pages[base].current(s.gen) {
			s.hits.Add(1)
			s.mHits.Inc()
		} else {
			missing = true
		}
		if base == last {
			break
		}
	}
	s.mu.RUnlock()
	if !missing {
		return
	}
	s.batchRuns.Add(1)
	s.mBatchRuns.Inc()
	s.mu.Lock()
	_ = s.validateLocked(first, last)
	s.mu.Unlock()
}

// ensure makes every page covering [addr, addr+size) cache-resident and
// current, fetching runs of contiguous missing pages in one read each and
// revalidating stale ones. Ranges that wrap past the top of the address
// space (a garbage or poisoned pointer fed to Prefetch) are clamped: without
// the clamp, last wraps below first and the page loops never terminate.
func (s *Snapshot) ensure(addr, size uint64) error {
	if size == 0 {
		return nil
	}
	if addr+size-1 < addr {
		size = -addr
	}
	first := addr &^ (PageSize - 1)
	last := (addr + size - 1) &^ (PageSize - 1)

	// Fast path: everything already resident and current.
	s.mu.RLock()
	missing := false
	for base := first; ; base += PageSize {
		if s.pages[base].current(s.gen) {
			s.hits.Add(1)
			s.mHits.Inc()
		} else {
			missing = true
		}
		if base == last {
			break
		}
	}
	s.mu.RUnlock()
	if !missing {
		return nil
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	return s.validateLocked(first, last)
}

// validateLocked brings every page of [first, last] (inclusive page bases)
// resident and current: journal-flagged blocks are refetched sub-page,
// remaining stale pages are revalidated by content hash (whole-page refetch
// when the chain cannot hash), and missing pages are filled in coalesced
// runs. Caller holds s.mu.
func (s *Snapshot) validateLocked(first, last uint64) error {
	s.revalidateStaleLocked(first, last)
	return s.fillLocked(first, last)
}

// revalidateStaleLocked resolves every stale or dirty-flagged page in
// [first, last]. Pages whose refetch fails are deleted so the fill pass
// retries them whole and reports the error. Caller holds s.mu.
func (s *Snapshot) revalidateStaleLocked(first, last uint64) {
	// Pass A — journal fast path: pages current by generation but carrying
	// dirty block flags refetch exactly those blocks.
	for base := first; ; base += PageSize {
		if p := s.pages[base]; p != nil && p.gen == s.gen && p.dirty != 0 {
			s.refetchBlocksLocked(base, p, p.dirty)
		}
		if base == last {
			break
		}
	}
	// Pass B — hash revalidation: contiguous runs of generation-stale pages
	// exchange content hashes in one query; only mismatching blocks refetch.
	for base := first; ; {
		p := s.pages[base]
		if p == nil || p.gen == s.gen {
			if base == last {
				break
			}
			base += PageSize
			continue
		}
		end := base
		for end != last {
			np := s.pages[end+PageSize]
			if np == nil || np.gen == s.gen {
				break
			}
			end += PageSize
		}
		s.revalidateRunLocked(base, end)
		if end == last {
			break
		}
		base = end + PageSize
	}
}

// pageScratch pools the page-sized scratch buffers the refetch paths read
// through. Steady-state revalidation rounds run these paths on every stop
// event; per-call make([]byte, ...) here was a top allocation site once the
// extraction itself stopped allocating.
var pageScratch = sync.Pool{New: func() any {
	b := make([]byte, PageSize)
	return &b
}}

// refetchBlocksLocked refetches the flagged SubPage blocks of one page,
// coalescing adjacent flagged blocks into single reads, and promotes the
// page. The fresh bytes are diffed against the cached ones so `changed` only
// moves when content really moved (a journaled write of identical bytes does
// not dirty dependent figures), and a zero-copy page is privatized before the
// first in-place update — never written through. On read failure the page is
// deleted; the fill pass will retry it whole. Caller holds s.mu.
func (s *Snapshot) refetchBlocksLocked(base uint64, p *spage, bits uint16) {
	sp := s.span("snapshot.subpage")
	sp.TagHex("page", base)
	defer sp.End()
	scratch := pageScratch.Get().(*[]byte)
	defer pageScratch.Put(scratch)
	contentChanged := false
	for i := 0; i < BlocksPerPage; {
		if bits&(1<<i) == 0 {
			i++
			continue
		}
		j := i
		for j+1 < BlocksPerPage && bits&(1<<(j+1)) != 0 {
			j++
		}
		off := uint64(i) * SubPage
		n := uint64(j-i+1) * SubPage
		tmp := (*scratch)[:n]
		if err := s.Target.ReadMemory(base+off, tmp); err != nil {
			delete(s.pages, base)
			return
		}
		s.subFills.Add(1)
		s.mSubFill.Inc()
		s.subBytes.Add(n)
		if !bytes.Equal(tmp, p.data[off:off+n]) {
			contentChanged = true
			p.unalias()
			copy(p.data[off:], tmp)
		}
		i = j + 1
	}
	p.dirty = 0
	p.gen = s.gen
	if contentChanged {
		p.changed = s.gen
	}
}

// revalidateRunLocked revalidates the generation-stale pages [base, end] by
// one stub-side hash exchange, refetching only mismatching blocks. Without a
// hasher in the chain each page is refetched whole (still diffed, so
// `changed` stays accurate). Caller holds s.mu.
func (s *Snapshot) revalidateRunLocked(base, end uint64) {
	size := end - base + PageSize
	sp := s.span("snapshot.revalidate")
	sp.TagHex("base", base)
	sp.TagUint("pages", size/PageSize)
	defer sp.End()
	hashes, ok := HashBlocks(s.Target, base, size)
	if !ok || len(hashes) != int(size/SubPage) {
		for pb := base; ; pb += PageSize {
			s.refetchPageLocked(pb)
			if pb == end {
				break
			}
		}
		return
	}
	for pb := base; ; pb += PageSize {
		p := s.pages[pb]
		hs := hashes[(pb-base)/SubPage:][:BlocksPerPage]
		var mismatch uint16
		for i := 0; i < BlocksPerPage; i++ {
			if HashBlock(p.data[i*SubPage:(i+1)*SubPage]) != hs[i] {
				mismatch |= 1 << i
			}
		}
		s.revalidations.Add(1)
		s.mReval.Inc()
		if mismatch == 0 {
			p.dirty = 0
			p.gen = s.gen // content unchanged: `changed` stays put
		} else {
			s.refetchBlocksLocked(pb, p, mismatch)
		}
		if pb == end {
			break
		}
	}
}

// refetchPageLocked refetches one stale page whole (the no-capability
// fallback), diffing content to keep `changed` accurate. Caller holds s.mu.
func (s *Snapshot) refetchPageLocked(pb uint64) {
	sp := s.span("snapshot.refetch")
	sp.TagHex("page", pb)
	defer sp.End()
	p := s.pages[pb]
	scratch := pageScratch.Get().(*[]byte)
	defer pageScratch.Put(scratch)
	tmp := *scratch
	if err := s.Target.ReadMemory(pb, tmp); err != nil {
		delete(s.pages, pb)
		return
	}
	s.staleRefetch.Add(1)
	s.mStaleRef.Inc()
	if !bytes.Equal(tmp, p.data) {
		p.changed = s.gen
		p.unalias()
		copy(p.data, tmp)
	}
	p.dirty = 0
	p.gen = s.gen
}

// fillLocked fetches every missing page in [first, last] (inclusive page
// bases), coalescing runs of contiguous missing pages into one read each.
// Caller holds s.mu.
func (s *Snapshot) fillLocked(first, last uint64) error {
	var firstErr error
	for base := first; ; base += PageSize {
		if _, ok := s.pages[base]; !ok {
			// Extend the run over every contiguous missing page.
			end := base
			for end != last {
				if _, ok := s.pages[end+PageSize]; ok {
					break
				}
				end += PageSize
			}
			if err := s.fillRun(base, end); err != nil && firstErr == nil {
				firstErr = err
			}
			base = end
		}
		if base >= last {
			break
		}
	}
	return firstErr
}

// fillRun reads the pages [base, end] (inclusive bases) into the cache.
// When the target chain exposes a memory map, the run is clipped to mapped
// ranges before any read is issued — unmapped stretches are skipped, not
// attempted — and an error is still reported so ReadMemory keeps its
// fail-on-unreadable contract. Without a map, a failed multi-page run is
// retried page by page so the mapped pages around a hole land in the cache
// anyway.
func (s *Snapshot) fillRun(base, end uint64) error {
	size := end - base + PageSize
	if clipped, ok := ClipMapped(s.Target, base, size); ok {
		var firstErr error
		covered := uint64(0)
		for _, r := range clipped {
			// Defensive page alignment: the query is page-aligned, so a sane
			// prober answers in whole pages; re-align and clamp regardless.
			lo := r.Addr &^ (PageSize - 1)
			hi := (r.End() - 1) &^ (PageSize - 1)
			if lo < base {
				lo = base
			}
			if hi > end {
				hi = end
			}
			if lo > hi {
				continue
			}
			if err := s.readRun(lo, hi-lo+PageSize); err != nil && firstErr == nil {
				firstErr = err
			}
			covered += hi - lo + PageSize
		}
		if firstErr != nil {
			return firstErr
		}
		if covered < size {
			return fmt.Errorf("target: %d of %d bytes unmapped in fill %#x+%#x",
				size-covered, size, base, size)
		}
		return nil
	}
	err := s.readRun(base, size)
	if err == nil || size == PageSize {
		return err
	}
	// No memory map to clip against: degrade to per-page fills so one
	// unmapped page no longer fails the whole multi-page fill.
	var firstErr error
	for off := uint64(0); off < size; off += PageSize {
		if perr := s.readRun(base+off, PageSize); perr != nil && firstErr == nil {
			firstErr = perr
		}
	}
	return firstErr
}

// readRun caches every page of a page-aligned run at the current generation.
// When the chain exposes a PageProvider, pages still shared with the CoW
// store are installed as zero-copy aliases — no read, no allocation, no link
// traffic — and only the gaps (privatized or store-less pages) are read.
// Caller holds s.mu.
func (s *Snapshot) readRun(base, size uint64) error {
	if s.provider == nil {
		return s.copyRun(base, size)
	}
	var firstErr error
	pending := uint64(0) // pages since pendBase awaiting a copy fill
	pendBase := base
	for off := uint64(0); off < size; off += PageSize {
		if data, ok := s.provider.PageData(base + off); ok && len(data) == PageSize {
			if pending > 0 {
				if err := s.copyRun(pendBase, pending*PageSize); err != nil && firstErr == nil {
					firstErr = err
				}
				pending = 0
			}
			s.pages[base+off] = &spage{
				data:    data,
				gen:     s.gen,
				changed: s.gen,
				aliased: true,
			}
			s.zeroCopy.Add(1)
			s.mZeroCopy.Inc()
			s.misses.Add(1)
			s.mMisses.Inc()
		} else {
			if pending == 0 {
				pendBase = base + off
			}
			pending++
		}
	}
	if pending > 0 {
		if err := s.copyRun(pendBase, pending*PageSize); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// copyRun issues one coalesced read of a page-aligned run and caches every
// page of it. The run buffer is retained as the pages' backing (one
// allocation per run, not per page), so it is deliberately not pooled.
// Caller holds s.mu.
func (s *Snapshot) copyRun(base, size uint64) error {
	run := make([]byte, size)
	if err := s.Target.ReadMemory(base, run); err != nil {
		return err
	}
	s.mFills.Inc()
	for off := uint64(0); off < size; off += PageSize {
		s.pages[base+off] = &spage{
			data:    run[off : off+PageSize : off+PageSize],
			gen:     s.gen,
			changed: s.gen,
		}
		s.misses.Add(1)
		s.mMisses.Inc()
	}
	return nil
}

// Stats implements Target: logical reads as the extraction issued them
// (the underlying target's Stats count what actually crossed the link).
func (s *Snapshot) Stats() *Stats { return &s.stats }

var (
	_ Target            = (*Snapshot)(nil)
	_ Prefetcher        = (*Snapshot)(nil)
	_ BatchPrefetcher   = (*Snapshot)(nil)
	_ obs.TracerCarrier = (*Snapshot)(nil)
)
