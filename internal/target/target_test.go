package target

import (
	"sync"
	"testing"
	"time"

	"visualinux/internal/ctypes"
	"visualinux/internal/mem"
)

func fixture(t *testing.T) (*Sim, uint64) {
	t.Helper()
	m := mem.New()
	base := uint64(0x1000_0000)
	data := make([]byte, 4*PageSize)
	for i := range data {
		data[i] = byte(i * 3)
	}
	m.Write(base, data)
	return NewSim(m, ctypes.NewRegistry()), base
}

func TestSimSymbols(t *testing.T) {
	s, base := fixture(t)
	s.AddSymbol("init_task", base, nil)
	s.AddSymbol("jiffies", base+8, nil)
	if sym, ok := s.LookupSymbol("init_task"); !ok || sym.Addr != base {
		t.Fatalf("LookupSymbol(init_task) = %+v, %v", sym, ok)
	}
	if name, ok := s.SymbolAt(base + 8); !ok || name != "jiffies" {
		t.Fatalf("SymbolAt = %q, %v", name, ok)
	}
	syms := s.Symbols()
	if len(syms) != 2 || syms[0].Name != "init_task" || syms[1].Name != "jiffies" {
		t.Fatalf("Symbols() order lost: %+v", syms)
	}
}

func TestReadCStringChunked(t *testing.T) {
	m := mem.New()
	base := uint64(0x2000_0000)
	m.WriteCString(base, "hello")
	s := NewSim(m, ctypes.NewRegistry())

	got, err := ReadCString(s, base, 256)
	if err != nil || got != "hello" {
		t.Fatalf("ReadCString = %q, %v", got, err)
	}
	// A 64-byte chunk would cross into the unmapped next page; the page
	// clamp must keep the in-page prefix readable.
	tail := base + uint64(mem.PageSize) - 3
	m.Write(tail, []byte{'h', 'i', '!'}) // runs to the exact page edge, no NUL
	got, err = ReadCString(s, tail, 256)
	if err != nil || got != "hi!" {
		t.Fatalf("edge ReadCString = %q, %v (want partial prefix, nil)", got, err)
	}
	// Entirely unmapped start errors.
	if _, err := ReadCString(s, 0xdead_0000, 16); err == nil {
		t.Fatal("unmapped ReadCString succeeded")
	}
}

func TestSnapshotHitMissInvalidate(t *testing.T) {
	s, base := fixture(t)
	snap := NewSnapshot(s)

	var b8 [8]byte
	if err := snap.ReadMemory(base, b8[:]); err != nil {
		t.Fatal(err)
	}
	underReads, _ := s.Stats().Snapshot()
	if underReads != 1 {
		t.Fatalf("first read: underlying reads = %d, want 1 window fill", underReads)
	}
	// Every subsequent read inside the filled window is a cache hit: no new
	// underlying traffic.
	for off := uint64(8); off < FillWindow; off += 128 {
		if err := snap.ReadMemory(base+off, b8[:]); err != nil {
			t.Fatal(err)
		}
	}
	if r, _ := s.Stats().Snapshot(); r != underReads {
		t.Fatalf("cache hits leaked to underlying target: %d reads", r)
	}
	// The page's other windows fill once each, then hit.
	for pass := 0; pass < 2; pass++ {
		for off := uint64(FillWindow + 8); off < PageSize; off += 512 {
			if err := snap.ReadMemory(base+off, b8[:]); err != nil {
				t.Fatal(err)
			}
		}
	}
	underReads += PageSize/FillWindow - 1
	if r, _ := s.Stats().Snapshot(); r != underReads {
		t.Fatalf("underlying reads = %d, want %d (one per window)", r, underReads)
	}
	hits, misses := snap.CacheStats()
	if misses != PageSize/FillWindow || hits == 0 {
		t.Fatalf("CacheStats = %d hits, %d misses", hits, misses)
	}
	// Logical reads are still counted on the snapshot itself.
	if logical, _ := snap.Stats().Snapshot(); logical == 0 {
		t.Fatal("snapshot did not count logical reads")
	}

	// Invalidate forgets everything: next read refills.
	snap.Invalidate()
	if err := snap.ReadMemory(base, b8[:]); err != nil {
		t.Fatal(err)
	}
	if r, _ := s.Stats().Snapshot(); r != underReads+1 {
		t.Fatalf("after Invalidate: underlying reads = %d, want %d", r, underReads+1)
	}

	// Reads through unmapped memory still error like the raw target.
	if err := snap.ReadMemory(0xdead_0000_0000, b8[:]); err == nil {
		t.Fatal("unmapped read succeeded through snapshot")
	}
}

func TestSnapshotPrefetchCoalesces(t *testing.T) {
	s, base := fixture(t)
	snap := NewSnapshot(s)

	// Prefetching three pages must cost ONE underlying transaction.
	Prefetch(snap, base, 3*PageSize)
	reads, bytes := s.Stats().Snapshot()
	if reads != 1 {
		t.Fatalf("3-page prefetch took %d transactions, want 1 coalesced", reads)
	}
	if bytes != 3*PageSize {
		t.Fatalf("prefetch transferred %d bytes, want %d", bytes, 3*PageSize)
	}
	// Everything inside the range is now a hit.
	var b [16]byte
	for off := uint64(0); off < 3*PageSize; off += PageSize / 2 {
		if err := snap.ReadMemory(base+off, b[:]); err != nil {
			t.Fatal(err)
		}
	}
	if r, _ := s.Stats().Snapshot(); r != 1 {
		t.Fatalf("post-prefetch reads leaked: %d underlying transactions", r)
	}

	// Prefetch on a non-caching target is a no-op, never a wasted read.
	before, _ := s.Stats().Snapshot()
	Prefetch(s, base, 2*PageSize)
	if after, _ := s.Stats().Snapshot(); after != before {
		t.Fatal("Prefetch on a raw target issued reads")
	}
}

func TestLatencyAccounting(t *testing.T) {
	s, base := fixture(t)
	model := LatencyModel{PerRead: 5 * time.Millisecond, PerByte: 2 * time.Microsecond}
	lt := WithLatency(s, model)

	var b8 [8]byte
	for i := 0; i < 10; i++ {
		if err := lt.ReadMemory(base+uint64(8*i), b8[:]); err != nil {
			t.Fatal(err)
		}
	}
	reads, bytes, txns := lt.Stats().Totals()
	if reads != 10 || bytes != 80 || txns != 10 {
		t.Fatalf("stats = %d reads, %d bytes, %d txns", reads, bytes, txns)
	}
	want := 10 * model.Cost(8)
	if got := lt.VirtualElapsed(); got != want {
		t.Fatalf("VirtualElapsed = %v, want reads*PerRead + bytes*PerByte = %v", got, want)
	}
}

// TestSnapshotOverLatency is the Table 4 layering: cache hits must cost
// zero modeled link time.
func TestSnapshotOverLatency(t *testing.T) {
	s, base := fixture(t)
	lt := WithLatency(s, DefaultKGDB)
	snap := NewSnapshot(lt)

	var b8 [8]byte
	if err := snap.ReadMemory(base, b8[:]); err != nil {
		t.Fatal(err)
	}
	afterFill := lt.VirtualElapsed()
	if afterFill == 0 {
		t.Fatal("page fill should cross the modeled link")
	}
	for i := 0; i < 100; i++ {
		if err := snap.ReadMemory(base+uint64(8*i), b8[:]); err != nil {
			t.Fatal(err)
		}
	}
	if got := lt.VirtualElapsed(); got != afterFill {
		t.Fatalf("cache hits cost modeled time: %v -> %v", afterFill, got)
	}
}

func TestWithStatsIsolation(t *testing.T) {
	s, base := fixture(t)
	a, b := WithStats(s), WithStats(s)
	var buf [8]byte
	if err := a.ReadMemory(base, buf[:]); err != nil {
		t.Fatal(err)
	}
	ar, _ := a.Stats().Snapshot()
	br, _ := b.Stats().Snapshot()
	if ar != 1 || br != 0 {
		t.Fatalf("stats views not isolated: a=%d b=%d", ar, br)
	}
	if under, _ := s.Stats().Snapshot(); under != 1 {
		t.Fatalf("underlying target missed the read: %d", under)
	}
}

func TestReadUint(t *testing.T) {
	m := mem.New()
	base := uint64(0x3000_0000)
	m.WriteU64(base, 0x1122_3344_5566_7788)
	s := NewSim(m, ctypes.NewRegistry())
	for _, c := range []struct {
		size uint64
		want uint64
	}{{1, 0x88}, {2, 0x7788}, {4, 0x5566_7788}, {8, 0x1122_3344_5566_7788}} {
		got, err := ReadUint(s, base, c.size)
		if err != nil || got != c.want {
			t.Errorf("ReadUint size %d = %#x, %v (want %#x)", c.size, got, err, c.want)
		}
	}
	if _, err := ReadUint(s, base, 3); err == nil {
		t.Error("ReadUint accepted size 3")
	}
}

// TestSnapshotConcurrent hammers one snapshot from many goroutines mixing
// reads, prefetches and invalidates — the parallel-extraction sharing
// pattern. Run under -race.
func TestSnapshotConcurrent(t *testing.T) {
	s, base := fixture(t)
	snap := NewSnapshot(s)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var b [64]byte
			for i := 0; i < 200; i++ {
				off := uint64((g*131 + i*67) % (4*PageSize - 64))
				if err := snap.ReadMemory(base+off, b[:]); err != nil {
					t.Errorf("read %#x: %v", base+off, err)
					return
				}
				if b[0] != byte((off)*3) {
					t.Errorf("read %#x returned wrong data", base+off)
					return
				}
				if i%50 == 0 {
					Prefetch(snap, base, 2*PageSize)
				}
				if g == 0 && i%97 == 0 {
					snap.Invalidate()
				}
			}
		}(g)
	}
	wg.Wait()
}

// SumRanges is FNV-1a over the ranges' bytes in list order, so splitting a
// range in two or coalescing two contiguous ones leaves it unchanged, while
// reordering changes it; an unreadable range fails the sum.
func TestSumRanges(t *testing.T) {
	s, base := fixture(t)
	sum := func(rs ...Range) uint64 {
		t.Helper()
		h, err := SumRanges(s, rs)
		if err != nil {
			t.Fatalf("SumRanges(%v): %v", rs, err)
		}
		return h
	}
	buf := make([]byte, 48)
	if err := s.ReadMemory(base+100, buf); err != nil {
		t.Fatal(err)
	}
	whole := sum(Range{Addr: base + 100, Size: 48})
	if want := HashSum(NewHashSum(), buf); whole != want {
		t.Fatalf("sum %#x, want FNV-1a of the bytes %#x", whole, want)
	}
	if split := sum(Range{Addr: base + 100, Size: 20}, Range{Addr: base + 120, Size: 28}); split != whole {
		t.Errorf("split range sums to %#x, whole to %#x", split, whole)
	}
	if swapped := sum(Range{Addr: base + 120, Size: 28}, Range{Addr: base + 100, Size: 20}); swapped == whole {
		t.Error("reordered ranges sum the same")
	}
	if sum() != NewHashSum() {
		t.Error("empty list does not sum to the offset basis")
	}
	if _, err := SumRanges(s, []Range{{Addr: base, Size: 8}, {Addr: base + 64*PageSize, Size: 8}}); err == nil {
		t.Error("unreadable range summed without error")
	}
}
