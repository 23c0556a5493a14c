package target

import (
	"testing"

	"visualinux/internal/ctypes"
	"visualinux/internal/mem"
	"visualinux/internal/obs"
)

// holeFixture maps pages [base, base+2p) and [base+3p, base+4p), leaving
// page base+2p as an unmapped hole in the middle.
func holeFixture(t *testing.T) (*Sim, uint64) {
	t.Helper()
	m := mem.New()
	base := uint64(0x3000_0000)
	fill := func(addr, size uint64) {
		b := make([]byte, size)
		for i := range b {
			b[i] = byte(uint64(i) ^ addr>>12)
		}
		m.Write(addr, b)
	}
	fill(base, 2*PageSize)
	fill(base+3*PageSize, PageSize)
	return NewSim(m, ctypes.NewRegistry()), base
}

// TestEnsureOverflowClamp is the regression test for the ensure() hang: a
// range that wraps past the top of the address space (garbage pointer plus
// size overflowing 2^64) made `last` wrap below `first`, and the page loops
// never terminated. The clamp bounds the range at the top page instead.
func TestEnsureOverflowClamp(t *testing.T) {
	m := mem.New()
	top := ^uint64(PageSize - 1) // last page of the address space
	data := make([]byte, PageSize)
	for i := range data {
		data[i] = byte(i * 5)
	}
	m.Write(top, data)
	s := NewSim(m, ctypes.NewRegistry())
	snap := NewSnapshot(s)

	// Pointer near the top, size that wraps: must terminate (and cache the
	// clamped prefix), not spin through 2^52 page iterations.
	Prefetch(snap, top+PageSize-16, 0x100)
	if _, misses := snap.CacheStats(); misses != 1 {
		t.Fatalf("misses = %d, want the top page cached once", misses)
	}
	var b8 [8]byte
	if err := snap.ReadMemory(top+PageSize-8, b8[:]); err != nil {
		t.Fatal(err)
	}
	if reads, _ := s.Stats().Snapshot(); reads != 1 {
		t.Fatalf("underlying reads = %d, want 1 (clamped prefetch then hit)", reads)
	}
	// The prefetch filled only the top window; the page's first window is
	// one more fill.
	if err := snap.ReadMemory(top, b8[:]); err != nil {
		t.Fatal(err)
	}
	if reads, _ := s.Stats().Snapshot(); reads != 2 {
		t.Fatalf("underlying reads = %d, want 2 (the first window filled on demand)", reads)
	}

	// The batch path clamps too.
	snap2 := NewSnapshot(s)
	snap2.PrefetchRanges([]Range{{Addr: top + PageSize - 16, Size: 0x100}})
	if _, misses := snap2.CacheStats(); misses != 1 {
		t.Fatalf("batch misses = %d, want 1", misses)
	}
}

// TestBatchPrefetchClipsUnmappedHole checks the headline batch behavior:
// one merged multi-page run with an unmapped page inside it fills every
// mapped page around the hole — the hole costs only itself, not the fill.
func TestBatchPrefetchClipsUnmappedHole(t *testing.T) {
	s, base := holeFixture(t)
	o := obs.NewObserver()
	snap := NewSnapshot(s).Instrument(o)

	snap.PrefetchRanges([]Range{{Addr: base, Size: 4 * PageSize}})
	if runs := o.BatchPrefetchRuns.Value(); runs != 1 {
		t.Fatalf("batch runs = %d, want 1 merged run", runs)
	}
	// The sim exposes its memory map, so the fill is clipped into the two
	// mapped islands: exactly two underlying reads, hole never attempted.
	reads, bytes := s.Stats().Snapshot()
	if reads != 2 {
		t.Fatalf("underlying reads = %d, want 2 clipped island fills", reads)
	}
	if bytes != 3*PageSize {
		t.Fatalf("underlying bytes = %d, want %d (mapped pages only)", bytes, 3*PageSize)
	}

	// Mapped pages are now resident: reads are cache hits.
	var b8 [8]byte
	for _, addr := range []uint64{base, base + PageSize, base + 3*PageSize} {
		if err := snap.ReadMemory(addr, b8[:]); err != nil {
			t.Fatalf("read %#x after batch prefetch: %v", addr, err)
		}
	}
	if r, _ := s.Stats().Snapshot(); r != reads {
		t.Fatalf("post-prefetch reads leaked to underlying: %d -> %d", reads, r)
	}
	// The hole still errors precisely, like the raw target.
	if err := snap.ReadMemory(base+2*PageSize, b8[:]); err == nil {
		t.Fatal("read inside the hole succeeded")
	}
}

// TestBatchPrefetchMergesAdjacentElements checks that element-sized ranges
// in neighboring fill windows merge into one coalesced fill — the
// cross-element win: N small element reads become one link transaction —
// while elements a page apart fill only their own windows.
func TestBatchPrefetchMergesAdjacentElements(t *testing.T) {
	m := mem.New()
	base := uint64(0x5000_0000)
	m.Write(base, make([]byte, 4*PageSize))
	s := NewSim(m, ctypes.NewRegistry())
	o := obs.NewObserver()
	snap := NewSnapshot(s).Instrument(o)

	// Four 64-byte "elements", one per window: separately they would cost
	// four fills; merged (each within one window-step of the next) they cost
	// one.
	var ranges []Range
	for i := uint64(0); i < 4; i++ {
		ranges = append(ranges, Range{Addr: base + i*FillWindow + 128, Size: 64})
	}
	snap.PrefetchRanges(ranges)
	if runs := o.BatchPrefetchRuns.Value(); runs != 1 {
		t.Fatalf("batch runs = %d, want 1", runs)
	}
	reads, bytes := s.Stats().Snapshot()
	if reads != 1 {
		t.Fatalf("underlying reads = %d, want 1 coalesced fill", reads)
	}
	if bytes != 4*FillWindow {
		t.Fatalf("underlying bytes = %d, want %d", bytes, 4*FillWindow)
	}

	// Four elements one per page: three windows lie between neighbors, so
	// each fills its own window instead of the whole stretch.
	var sparse []Range
	for i := uint64(0); i < 4; i++ {
		sparse = append(sparse, Range{Addr: base + i*PageSize + 128, Size: 64})
	}
	o2 := obs.NewObserver()
	snap2 := NewSnapshot(s).Instrument(o2)
	snap2.PrefetchRanges(sparse)
	if runs := o2.BatchPrefetchRuns.Value(); runs != 4 {
		t.Fatalf("sparse batch runs = %d, want 4", runs)
	}
	if r, b := s.Stats().Snapshot(); r-reads != 4 || b-bytes != 4*FillWindow {
		t.Fatalf("sparse fills = %d reads, %d bytes; want 4, %d", r-reads, b-bytes, 4*FillWindow)
	}

	// Resident ranges cost nothing on a second pass: no new batch run.
	snap.PrefetchRanges(ranges)
	if runs := o.BatchPrefetchRuns.Value(); runs != 1 {
		t.Fatalf("resident batch re-run issued a fill (runs = %d)", runs)
	}
}

// TestSimClipMapped pins the prober semantics the batch path relies on.
func TestSimClipMapped(t *testing.T) {
	s, base := holeFixture(t)

	ranges, ok := s.ClipMapped(base+PageSize/2, 3*PageSize)
	if !ok {
		t.Fatal("sim should answer ClipMapped")
	}
	want := []Range{
		{Addr: base + PageSize/2, Size: PageSize + PageSize/2},
		{Addr: base + 3*PageSize, Size: PageSize / 2},
	}
	if len(ranges) != len(want) {
		t.Fatalf("clip = %v, want %v", ranges, want)
	}
	for i := range want {
		if ranges[i] != want[i] {
			t.Fatalf("clip[%d] = %+v, want %+v", i, ranges[i], want[i])
		}
	}
	// Fully unmapped span: no ranges, still ok.
	if r, ok := s.ClipMapped(0xdead_0000_0000, PageSize); !ok || len(r) != 0 {
		t.Fatalf("unmapped clip = %v, %v", r, ok)
	}
}
