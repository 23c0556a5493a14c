package target

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"visualinux/internal/obs"
)

// PageSize is the key of the snapshot read cache: 4 KiB, the guest page
// size, which also matches the simulated memory's mapping granularity (so a
// page is either fully readable or fully absent). A cached page need not be
// whole: copy fills read FillWindow units, and each page records which of
// its SubPage blocks hold target bytes.
const PageSize = 4096

// FillWindow is the unit of a snapshot copy fill: 1 KiB, aligned. A read
// fills the windows it touches, not its whole page. On a slow link the bytes
// of a page that no figure reads cost more than the extra transactions of
// filling by window: over the kgdb_attach shape, 1 KiB windows move half the
// bytes and 40% fewer packets of a 512-byte stub than 4 KiB pages, for a
// third more transactions. Zero-copy fills stay whole pages; they move
// nothing.
const FillWindow = 1024

// allBlocks marks every SubPage block of a page; windowBlocks the blocks of
// the fill window at offset 0.
const (
	allBlocks    = 1<<BlocksPerPage - 1
	windowBlocks = 1<<(FillWindow/SubPage) - 1
)

// blockSpan is the mask of the SubPage blocks covering the n > 0 bytes at
// page offset off.
func blockSpan(off, n uint64) uint16 {
	lo, hi := off/SubPage, (off+n-1)/SubPage
	return uint16(uint32(1)<<(hi+1) - uint32(1)<<lo)
}

// windowSpan widens blockSpan to whole fill windows: the blocks a fill of
// the n > 0 bytes at page offset off brings resident.
func windowSpan(off, n uint64) uint16 {
	lo := off &^ (FillWindow - 1)
	return blockSpan(lo, ((off+n-1)|(FillWindow-1))-lo+1)
}

// inPage clips [addr, last] (inclusive) to the page at base, as a page
// offset and a length.
func inPage(base, addr, last uint64) (off, n uint64) {
	off, hi := uint64(0), uint64(PageSize-1)
	if addr > base {
		off = addr - base
	}
	if last < base+PageSize-1 {
		hi = last - base
	}
	return off, hi - off + 1
}

// spage is one cached page plus its incremental-validation state.
type spage struct {
	// data is PageSize bytes; only the resident blocks hold target memory.
	data []byte
	// resident flags the SubPage blocks that were filled. A copy fill sets
	// whole windows; a zero-copy alias sets every block. Revalidation and the
	// change generation concern resident blocks only.
	resident uint16
	// gen is the snapshot generation this page was last known valid for.
	// A page whose gen lags the snapshot's is stale: its bytes are kept but
	// must be revalidated (by dirty-range journal or content hash) before
	// they may be served again.
	gen uint64
	// changed is the generation at which this page's resident content last
	// differed, or last grew by a filled window — the figure-level delta
	// check compares it against the generation a figure was extracted at.
	changed uint64
	// dirty flags resident SubPage blocks the write journal reported mutated
	// since the page was last validated; they are refetched (just those
	// blocks, not the page) before the page is served again.
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

// Snapshot is a read-through cache over any Target, keyed by 4 KiB page
// and filled by 1 KiB window (FillWindow). Within one stop event every
// window needs at most one fetch; across stop events the cache is
// generation-tagged: Advance (the incremental resume boundary) makes pages
// stale instead of dropping them, and stale pages are revalidated lazily on
// next access —
//
//   - pages the target's write journal (DirtySince) covers are promoted for
//     free, with only journal-flagged resident SubPage blocks refetched;
//   - otherwise content hashes (HashBlocks) are exchanged and only
//     mismatching resident blocks refetched;
//   - a chain with neither capability refetches the resident blocks of
//     stale pages, which is still never worse than the old drop-everything
//     Invalidate.
//
// Invalidate keeps its wholesale semantics for callers that really want a
// cold cache.
//
// Layered over a Latency (or a real RSP link), a Snapshot converts the
// many small field reads of an extraction into a few window-sized
// transactions: cache hits cost zero modeled link time. Contiguous missing
// windows are fetched in one coalesced transaction, across page boundaries,
// so Prefetch of a multi-page object costs one round trip, not one per page.
// When the chain can lend its pages (PageProvider), a fill aliases the
// whole page instead of copying any window.
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
	misses        atomic.Uint64 // pages a fill touched (copied windows or aliased)
	revalidations atomic.Uint64 // stale pages revalidated by content hash
	promotions    atomic.Uint64 // stale pages promoted clean by the write journal
	staleRefetch  atomic.Uint64 // stale pages' resident blocks refetched (no hash capability)
	subFills      atomic.Uint64 // sub-page block-run refetches issued
	subBytes      atomic.Uint64 // bytes moved by sub-page refetches
	zeroCopy      atomic.Uint64 // pages filled by aliasing store pages (no copy)

	// Observer counter handles (nil-safe when uninstrumented): the events
	// above plus invalidations, batch runs and advances, aggregated
	// process-wide so every snapshot in every worker feeds one
	// /debug/metrics view.
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
	s.mInval.Inc()
}

// Advance is the incremental stop-event boundary: the target ran and
// stopped again. Cached pages become stale rather than gone. When the
// chain's write journal can answer "what changed since the last stop",
// untouched pages are promoted to the new generation immediately (zero link
// traffic) and touched pages have exactly the mutated resident SubPage
// blocks flagged for refetch (a block that was never filled has nothing to
// refetch); otherwise every page stays stale and is lazily
// revalidated by content hash on next access.
func (s *Snapshot) Advance() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
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
		if bits := flagged[base] & p.resident; bits != 0 {
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

// RangesUnchangedSince revalidates the resident blocks of the pages
// covering the given ranges and reports whether all of the ranges' bytes
// are unchanged since generation `since`; it stops at the first page that
// changed. This is the free first check of the figure-level delta (a figure
// whose window-granular read set is clean needs no re-extraction at all) and
// of the memo's box verification. It is page-granular in what it detects:
// one changed resident block anywhere in a page, or a window filled into the
// page since, fails it, and callers then compare content sums over their
// exact ranges (SumRanges). It never fills: a range byte whose block is not
// resident was not read through this cache since the page was cached (the
// read failed, or the page was dropped), so it reports changed. The
// revalidation work is the cheap kind (journal promotion or hash exchange)
// and is shared with any read that follows.
func (s *Snapshot) RangesUnchangedSince(ranges []Range, since uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range ranges {
		if r.Size == 0 {
			continue
		}
		last := r.Addr + r.Size - 1
		if last < r.Addr {
			last = ^uint64(0)
		}
		first, lastPage := r.Addr&^(PageSize-1), last&^(PageSize-1)
		s.revalidateStaleLocked(first, lastPage)
		for base := first; ; base += PageSize {
			p := s.pages[base]
			need := blockSpan(inPage(base, r.Addr, last))
			if p == nil || p.resident&need != need || p.changed > since {
				return false
			}
			if base == lastPage {
				break
			}
		}
	}
	return true
}

// CacheStats returns page-granular hit/miss counts: hits are page lookups
// served from the cache, misses pages a fill touched.
func (s *Snapshot) CacheStats() (hits, misses uint64) {
	return s.hits.Load(), s.misses.Load()
}

// Revalidations reports stale pages revalidated via content hashes.
func (s *Snapshot) Revalidations() uint64 { return s.revalidations.Load() }

// Promotions reports stale pages promoted clean by the write journal.
func (s *Snapshot) Promotions() uint64 { return s.promotions.Load() }

// StaleRefetches reports stale pages whose resident blocks were refetched
// (no hash capability).
func (s *Snapshot) StaleRefetches() uint64 { return s.staleRefetch.Load() }

// SubpageFills returns the count of sub-page block-run refetches and the
// bytes they moved — the adaptive-granularity win for sparse pages.
func (s *Snapshot) SubpageFills() (runs, bytes uint64) {
	return s.subFills.Load(), s.subBytes.Load()
}

// ZeroCopyFills reports pages filled by aliasing immutable store pages
// instead of copying them through the link.
func (s *Snapshot) ZeroCopyFills() uint64 { return s.zeroCopy.Load() }

// ready reports whether p may serve the blocks need at generation gen
// without a fill or revalidation: they are resident, the page is current,
// and the journal flagged none of them.
func (p *spage) ready(gen uint64, need uint16) bool {
	return p != nil && p.gen == gen && p.resident&need == need && p.dirty&need == 0
}

// ReadMemory implements Target, serving from cached pages and filling
// missing windows through the underlying target.
func (s *Snapshot) ReadMemory(addr uint64, buf []byte) error {
	s.stats.CountRead(len(buf))
	if len(buf) == 0 {
		return nil
	}
	if err := s.ensure(addr, uint64(len(buf)), false); err != nil {
		// A window in the range is unreadable. Degrade to a direct read of
		// exactly the requested range so error semantics match the
		// underlying target (partial ranges fail there too).
		return s.Target.ReadMemory(addr, buf)
	}
	s.mu.RLock()
	resident := true
	for n := 0; n < len(buf); {
		cur := addr + uint64(n)
		base := cur &^ (PageSize - 1)
		off := cur - base
		m := min(PageSize-off, uint64(len(buf)-n))
		p := s.pages[base]
		if !p.ready(s.gen, blockSpan(off, m)) {
			resident = false // raced with Invalidate/Advance
			break
		}
		n += copy(buf[n:], p.data[off:off+m])
	}
	s.mu.RUnlock()
	if !resident {
		return s.Target.ReadMemory(addr, buf)
	}
	return nil
}

// Prefetch implements Prefetcher: it pulls the windows covering
// [addr, addr+size) into the cache, coalescing adjacent missing windows into
// single large transactions. Errors are swallowed — unreadable stretches
// simply stay uncached and fail later at the precise read that needs them.
func (s *Snapshot) Prefetch(addr, size uint64) {
	_ = s.ensure(addr, size, false)
}

// maxBatchRun bounds one coalesced batch-prefetch fill: merged element runs
// longer than this (large arrays, whole slabs) are split so a single fill
// never exceeds the link's appetite.
const maxBatchRun = 256 << 10

// PrefetchRanges implements BatchPrefetcher: the cross-element batch pass.
// Every range a container walk yielded is widened to fill windows, sorted,
// and merged — adjacent elements' window runs (array slots, contiguous slab
// objects) become single fills — and each merged run is then filled like
// Prefetch would, clipped to the target's memory map when it exposes one.
// One unmapped page inside a merged run therefore costs only itself, never
// the whole fill.
func (s *Snapshot) PrefetchRanges(ranges []Range) {
	type span struct{ first, last uint64 } // window base, inclusive last byte
	spans := make([]span, 0, len(ranges))
	for _, r := range ranges {
		if r.Size == 0 {
			continue
		}
		if r.Addr+r.Size-1 < r.Addr {
			r.Size = -r.Addr // clamp a wrapping range at the top
		}
		spans = append(spans, span{r.Addr &^ (FillWindow - 1), (r.Addr + r.Size - 1) | (FillWindow - 1)})
	}
	if len(spans) == 0 {
		return
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].first < spans[j].first })
	merged := spans[:1]
	for _, sp := range spans[1:] {
		cur := &merged[len(merged)-1]
		if sp.first == 0 || sp.first-1 <= cur.last {
			cur.last = max(cur.last, sp.last)
		} else {
			merged = append(merged, sp)
		}
	}
	for _, sp := range merged {
		for base := sp.first; ; {
			end := sp.last
			if end-base >= maxBatchRun {
				end = base + maxBatchRun - 1
			}
			_ = s.ensure(base, end-base+1, true)
			if end == sp.last {
				break
			}
			base = end + 1
		}
	}
}

// ensure makes every window covering [addr, addr+size) cache-resident and
// current, fetching runs of contiguous missing windows in one read each and
// revalidating stale pages. Residency is checked under the read lock; a
// batch fill (PrefetchRanges) that actually misses counts as a batch run.
// Ranges that wrap past the top of the address space (a garbage or poisoned
// pointer fed to Prefetch) are clamped: without the clamp, the last address
// wraps below the first and the window loops never terminate.
func (s *Snapshot) ensure(addr, size uint64, batch bool) error {
	if size == 0 {
		return nil
	}
	last := addr + size - 1
	if last < addr {
		last = ^uint64(0)
	}

	// Fast path: everything already resident and current.
	s.mu.RLock()
	ready := true
	for base := addr &^ (PageSize - 1); ; base += PageSize {
		if s.pages[base].ready(s.gen, windowSpan(inPage(base, addr, last))) {
			s.hits.Add(1)
			s.mHits.Inc()
		} else {
			ready = false
		}
		if base == last&^(PageSize-1) {
			break
		}
	}
	s.mu.RUnlock()
	if ready {
		return nil
	}
	if batch {
		s.mBatchRuns.Inc()
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.revalidateStaleLocked(addr&^(PageSize-1), last&^(PageSize-1))
	return s.fillLocked(addr&^(FillWindow-1), last&^(FillWindow-1))
}

// revalidateStaleLocked resolves every stale or dirty-flagged page in
// [first, last] (inclusive page bases). Pages whose refetch fails are
// deleted so a fill retries their windows and reports the error. Caller
// holds s.mu.
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

// scratch pools the buffers fills and refetches read through before the
// bytes are copied into their pages. Steady-state revalidation rounds run
// these paths on every stop event; per-call make([]byte, ...) here was a top
// allocation site once the extraction itself stopped allocating.
var scratch = sync.Pool{New: func() any {
	b := make([]byte, PageSize)
	return &b
}}

// getScratch returns a pooled buffer of n bytes; putScratch returns it.
func getScratch(n uint64) *[]byte {
	bp := scratch.Get().(*[]byte)
	if uint64(cap(*bp)) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

func putScratch(bp *[]byte) {
	if cap(*bp) <= maxBatchRun {
		scratch.Put(bp)
	}
}

// refreshBlocksLocked re-reads the SubPage blocks `bits` of page p,
// coalescing adjacent blocks into single reads, and brings the page current.
// The fresh bytes are diffed against the cached ones so `changed` only moves
// when content really moved (a journaled write of identical bytes does not
// dirty dependent figures), and a zero-copy page is privatized before the
// first in-place update — never written through. It returns the reads it
// issued and the bytes they moved; on a read failure the page is deleted and
// ok is false, so a later fill retries its windows. Caller holds s.mu.
func (s *Snapshot) refreshBlocksLocked(base uint64, p *spage, bits uint16) (runs, moved uint64, ok bool) {
	bp := getScratch(PageSize)
	defer putScratch(bp)
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
		tmp := (*bp)[:n]
		if err := s.Target.ReadMemory(base+off, tmp); err != nil {
			delete(s.pages, base)
			return runs, moved, false
		}
		runs++
		moved += n
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
	return runs, moved, true
}

// refetchBlocksLocked refetches the flagged resident blocks of one page (a
// journal flag or a hash mismatch) and promotes the page. Caller holds s.mu.
func (s *Snapshot) refetchBlocksLocked(base uint64, p *spage, bits uint16) {
	sp := s.span("snapshot.subpage")
	sp.TagHex("page", base)
	defer sp.End()
	runs, moved, _ := s.refreshBlocksLocked(base, p, bits)
	s.subFills.Add(runs)
	s.mSubFill.Add(runs)
	s.subBytes.Add(moved)
}

// revalidateRunLocked revalidates the generation-stale pages [base, end] by
// one stub-side hash exchange, refetching only mismatching resident blocks.
// Without a hasher in the chain each page's resident blocks are refetched
// (still diffed, so `changed` stays accurate). Caller holds s.mu.
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
			if p.resident&(1<<i) != 0 && HashBlock(p.data[i*SubPage:(i+1)*SubPage]) != hs[i] {
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

// refetchPageLocked refetches the resident blocks of one stale page (the
// no-capability fallback), diffing content to keep `changed` accurate.
// Caller holds s.mu.
func (s *Snapshot) refetchPageLocked(pb uint64) {
	sp := s.span("snapshot.refetch")
	sp.TagHex("page", pb)
	defer sp.End()
	p := s.pages[pb]
	if _, _, ok := s.refreshBlocksLocked(pb, p, p.resident); ok {
		s.staleRefetch.Add(1)
		s.mStaleRef.Inc()
	}
}

// hasWindow reports whether the fill window at w is cached. Caller holds
// s.mu.
func (s *Snapshot) hasWindow(w uint64) bool {
	p := s.pages[w&^(PageSize-1)]
	bits := uint16(windowBlocks) << (w & (PageSize - 1) / SubPage)
	return p != nil && p.resident&bits == bits
}

// fillLocked fetches every missing window in [first, last] (inclusive
// window bases), coalescing runs of contiguous missing windows into one
// read each, across page boundaries. Pages in the range have been
// revalidated. Caller holds s.mu.
func (s *Snapshot) fillLocked(first, last uint64) error {
	var firstErr error
	for w := first; ; w += FillWindow {
		if !s.hasWindow(w) {
			// Extend the run over every contiguous missing window.
			end := w
			for end != last && !s.hasWindow(end+FillWindow) {
				end += FillWindow
			}
			if err := s.fillRun(w, end); err != nil && firstErr == nil {
				firstErr = err
			}
			w = end
		}
		if w == last {
			break
		}
	}
	return firstErr
}

// fillRun reads the windows [first, last] (inclusive bases) into the cache.
// When the target chain exposes a memory map, the run is clipped to mapped
// ranges before any read is issued — unmapped stretches are skipped, not
// attempted — and an error is still reported so ReadMemory keeps its
// fail-on-unreadable contract. Without a map, a failed run that spans pages
// is retried page by page so the mapped pages around a hole land in the
// cache anyway.
func (s *Snapshot) fillRun(first, last uint64) error {
	size := last - first + FillWindow
	if clipped, ok := ClipMapped(s.Target, first, size); ok {
		var firstErr error
		covered := uint64(0)
		for _, r := range clipped {
			if r.Size == 0 {
				continue
			}
			// Defensive window alignment: a sane prober answers in whole
			// pages; re-align and clamp regardless.
			lo := max(r.Addr&^(FillWindow-1), first)
			hi := min((r.Addr+r.Size-1)&^(FillWindow-1), last)
			if lo > hi {
				continue
			}
			if err := s.readRun(lo, hi-lo+FillWindow); err != nil && firstErr == nil {
				firstErr = err
			}
			covered += hi - lo + FillWindow
		}
		if firstErr != nil {
			return firstErr
		}
		if covered < size {
			return fmt.Errorf("target: %d of %d bytes unmapped in fill %#x+%#x",
				size-covered, size, first, size)
		}
		return nil
	}
	err := s.readRun(first, size)
	if err == nil || first&^(PageSize-1) == last&^(PageSize-1) {
		return err
	}
	// No memory map to clip against: degrade to per-page fills so one
	// unmapped page no longer fails the whole multi-page fill.
	var firstErr error
	for lo := first; ; {
		hi := min(lo|(PageSize-FillWindow), last) // last window of lo's page
		if perr := s.readRun(lo, hi-lo+FillWindow); perr != nil && firstErr == nil {
			firstErr = perr
		}
		if hi == last {
			break
		}
		lo = hi + FillWindow
	}
	return firstErr
}

// readRun caches every window of a window-aligned run at the current
// generation. When the chain exposes a PageProvider, a page not yet cached
// and still shared with the CoW store is installed whole as a zero-copy
// alias — no read, no allocation, no link traffic — and only the rest
// (privatized or store-less pages, windows of partly cached pages) is read.
// Caller holds s.mu.
func (s *Snapshot) readRun(lo, size uint64) error {
	if s.provider == nil {
		return s.copyRun(lo, size)
	}
	var firstErr error
	pending := uint64(0) // bytes since pendLo awaiting a copy fill
	pendLo := lo
	for off := uint64(0); off < size; {
		a := lo + off
		base := a &^ (PageSize - 1)
		n := min(PageSize-(a-base), size-off)
		off += n
		if s.pages[base] == nil {
			if data, ok := s.provider.PageData(base); ok && len(data) == PageSize {
				if pending > 0 {
					if err := s.copyRun(pendLo, pending); err != nil && firstErr == nil {
						firstErr = err
					}
					pending = 0
				}
				s.pages[base] = &spage{
					data:     data,
					resident: allBlocks,
					gen:      s.gen,
					changed:  s.gen,
					aliased:  true,
				}
				s.zeroCopy.Add(1)
				s.mZeroCopy.Inc()
				s.misses.Add(1)
				s.mMisses.Inc()
				continue
			}
		}
		if pending == 0 {
			pendLo = a
		}
		pending += n
	}
	if pending > 0 {
		if err := s.copyRun(pendLo, pending); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// copyRun issues one coalesced read of a window-aligned run and copies each
// page's part into its cached page, creating the page on first fill. A
// window added to a page already cached moves the page's `changed`
// generation: a figure whose read of that window failed before must not be
// served from the page check once the window reads. Caller holds s.mu.
func (s *Snapshot) copyRun(lo, size uint64) error {
	bp := getScratch(size)
	defer putScratch(bp)
	run := *bp
	if err := s.Target.ReadMemory(lo, run); err != nil {
		return err
	}
	s.mFills.Inc()
	for off := uint64(0); off < size; {
		a := lo + off
		base := a &^ (PageSize - 1)
		po := a - base
		n := min(PageSize-po, size-off)
		p := s.pages[base]
		if p == nil {
			p = &spage{data: make([]byte, PageSize), gen: s.gen}
			s.pages[base] = p
		}
		p.changed = s.gen
		copy(p.data[po:], run[off:off+n])
		p.resident |= blockSpan(po, n)
		s.misses.Add(1)
		s.mMisses.Inc()
		off += n
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
