package gdbrsp_test

import (
	"sync"
	"testing"

	"visualinux/internal/gdbrsp"
	"visualinux/internal/kernelsim"
	"visualinux/internal/target"
)

// dialKernelOpts is dialKernel with server options (small packets, annex
// opt-outs) for the revalidation-annex tests.
func dialKernelOpts(t testing.TB, opts ...gdbrsp.ServerOption) (*kernelsim.Kernel, *gdbrsp.Client) {
	t.Helper()
	k := kernelsim.Build(kernelsim.Options{})
	srv, err := gdbrsp.Serve("127.0.0.1:0", k.Target(), opts...)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	client, err := gdbrsp.Dial(srv.Addr(), k.Reg, k.Target().Symbols())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	return k, client
}

// pageOf returns a page-aligned mapped address to hash against.
func pageOf(t *testing.T, k *kernelsim.Kernel) uint64 {
	t.Helper()
	sym, ok := k.Target().LookupSymbol("init_task")
	if !ok {
		t.Fatal("no init_task symbol")
	}
	return sym.Addr &^ (target.PageSize - 1)
}

// The memory-hash annex must return the same FNV block vector the stub
// computes locally, across the m/l continuation framing of a small packet
// size.
func TestMemoryHashAnnexOverWire(t *testing.T) {
	k, c := dialKernelOpts(t, gdbrsp.WithPacketSize(96))
	addr := pageOf(t, k)

	want, ok := target.HashBlocks(k.Target(), addr, target.PageSize)
	if !ok {
		t.Fatal("sim refused to hash")
	}
	got, ok := c.HashBlocks(addr, target.PageSize)
	if !ok {
		t.Fatal("client HashBlocks not ok despite advertised annex")
	}
	if len(got) != len(want) {
		t.Fatalf("got %d hashes, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("hash[%d] = %#x, want %#x", i, got[i], want[i])
		}
	}
	// A 4 KiB page is 16 blocks * 16 hex chars = 256 chars of annex body:
	// with 96-byte packets the fetch must have continued at least once.
	if c.Stats().Continuations.Load() == 0 {
		t.Fatal("small-packet hash fetch issued no continuation packets")
	}
	if c.Stats().HashChecks.Load() == 0 {
		t.Fatal("hash round trip not counted in link stats")
	}

	// Misaligned and zero-length queries fail client-side, not on the wire.
	if _, ok := c.HashBlocks(addr+1, target.PageSize); ok {
		t.Fatal("misaligned HashBlocks succeeded")
	}
	if _, ok := c.HashBlocks(addr, 0); ok {
		t.Fatal("zero-length HashBlocks succeeded")
	}
}

// The dirty-ranges annex arms a cursor, then reports exactly the guest
// ranges mutated since, merged and cursor-advanced.
func TestDirtyRangesAnnexOverWire(t *testing.T) {
	k, c := dialKernelOpts(t)

	_, mark, ok := c.DirtySince(^uint64(0))
	if !ok {
		t.Fatal("arming DirtySince failed despite advertised annex")
	}
	// Quiet link: no writes means no ranges and a stable cursor.
	ranges, mark2, ok := c.DirtySince(mark)
	if !ok || len(ranges) != 0 {
		t.Fatalf("quiet journal = %v ranges, ok=%v; want none, true", ranges, ok)
	}

	if err := k.PipeWrite(k.DirtyPipe, 64); err != nil {
		t.Fatalf("PipeWrite: %v", err)
	}
	ranges, mark3, ok := c.DirtySince(mark2)
	if !ok || len(ranges) == 0 {
		t.Fatalf("mutation invisible to journal: %v, ok=%v", ranges, ok)
	}
	if mark3 <= mark2 {
		t.Fatalf("journal cursor did not advance: %d -> %d", mark2, mark3)
	}
	for i := 1; i < len(ranges); i++ {
		if ranges[i].Addr < ranges[i-1].Addr {
			t.Fatalf("ranges not sorted: %+v", ranges)
		}
	}
}

// Servers without the annexes must not advertise them, and the client must
// degrade to ok=false (which the snapshot turns into hash revalidation or
// whole-page refetch).
func TestAnnexOptOut(t *testing.T) {
	t.Run("no-dirty", func(t *testing.T) {
		k, c := dialKernelOpts(t, gdbrsp.WithoutDirtyAnnex())
		if _, _, ok := c.DirtySince(^uint64(0)); ok {
			t.Fatal("DirtySince ok without the annex")
		}
		if _, ok := c.HashBlocks(pageOf(t, k), target.PageSize); !ok {
			t.Fatal("memory-hash annex should survive the dirty opt-out")
		}
	})
	t.Run("no-hash", func(t *testing.T) {
		k, c := dialKernelOpts(t, gdbrsp.WithoutHashAnnex())
		if _, ok := c.HashBlocks(pageOf(t, k), target.PageSize); ok {
			t.Fatal("HashBlocks ok without the annex")
		}
		if _, _, ok := c.DirtySince(^uint64(0)); !ok {
			t.Fatal("dirty-ranges annex should survive the hash opt-out")
		}
	})
}

// A snapshot layered over the RSP client revalidates a small mutation at
// sub-page cost over the wire — the end-to-end version of the bytes-on-link
// contract, on both the journal path and the hash-fallback path.
func TestSnapshotOverWireSubPageRevalidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []gdbrsp.ServerOption
	}{
		{"journal", nil},
		{"hash-fallback", []gdbrsp.ServerOption{gdbrsp.WithoutDirtyAnnex()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, c := dialKernelOpts(t, tc.opts...)
			snap := target.NewSnapshot(c)
			addr := pageOf(t, k)

			buf := make([]byte, target.PageSize)
			if err := snap.ReadMemory(addr, buf); err != nil {
				t.Fatalf("cold read: %v", err)
			}
			k.Mem.WriteU64(addr+8, 0x1234_5678_9abc_def0)
			before := c.Stats().BytesRead.Load()

			snap.Advance()
			if err := snap.ReadMemory(addr, buf); err != nil {
				t.Fatalf("steady read: %v", err)
			}
			var got [8]byte
			copy(got[:], buf[8:16])
			want := [8]byte{0xf0, 0xde, 0xbc, 0x9a, 0x78, 0x56, 0x34, 0x12}
			if got != want {
				t.Fatalf("stale bytes after Advance: %x", got)
			}
			if d := c.Stats().BytesRead.Load() - before; d != target.SubPage {
				t.Fatalf("%s: revalidation moved %d bytes over the wire, want %d",
					tc.name, d, target.SubPage)
			}
		})
	}
}

// The client's memory map must follow the kernel: after a stop whose
// journal writes land in a page mapped since the map was fetched, a read of
// that page is served by one snapshot fill and then from the cache, like
// any other page. A map fetched once per connection would clip the fill
// away as unmapped and send every read of the page across the link.
func TestMemoryMapFollowsGrowth(t *testing.T) {
	k, c := dialKernel(t)
	snap := target.NewSnapshot(c)
	var b8 [8]byte
	if err := snap.ReadMemory(pageOf(t, k), b8[:]); err != nil {
		t.Fatal(err)
	}
	before := c.MemoryMap()
	if len(before) == 0 {
		t.Fatal("stub served no memory map")
	}

	_, mark, ok := c.DirtySince(^uint64(0))
	if !ok {
		t.Fatal("stub journal unavailable")
	}

	// Step the workload until the kernel maps a page the client's map lacks.
	wl := kernelsim.NewWorkload(k)
	var fresh uint64
	for i := 0; i < 64 && fresh == 0; i++ {
		wl.Step()
		for _, r := range k.Target().MappedRanges() {
			for pb := r.Addr; pb < r.End(); pb += target.PageSize {
				if !mapHolds(before, pb) {
					fresh = pb
					break
				}
			}
			if fresh != 0 {
				break
			}
		}
	}
	if fresh == 0 {
		t.Fatal("64 workload steps mapped no new page")
	}
	snap.Advance()

	reads0 := c.Stats().Reads.Load()
	_, misses0 := snap.CacheStats()
	if err := snap.ReadMemory(fresh, b8[:]); err != nil {
		t.Fatalf("read of newly mapped page %#x: %v", fresh, err)
	}
	if got := c.Stats().Reads.Load() - reads0; got != 1 {
		t.Errorf("first read of %#x: %d link reads, want 1 fill", fresh, got)
	}
	if _, misses := snap.CacheStats(); misses != misses0+1 {
		t.Errorf("first read of %#x: %d fills, want 1", fresh, misses-misses0)
	}
	hits0, _ := snap.CacheStats()
	if err := snap.ReadMemory(fresh+8, b8[:]); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Reads.Load() - reads0; got != 1 {
		t.Errorf("second read of %#x reached the link (%d link reads in all)", fresh, got)
	}
	if hits, _ := snap.CacheStats(); hits != hits0+1 {
		t.Errorf("second read of %#x: %d cache hits, want 1", fresh, hits-hits0)
	}
	if !mapHolds(c.MemoryMap(), fresh) {
		t.Errorf("client map still lacks %#x after the stop", fresh)
	}

	// Every reader of the client shares its map: concurrent journal polls
	// and clips must agree on the grown map.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				if _, _, ok := c.DirtySince(mark); !ok {
					t.Error("journal poll failed")
					return
				}
				if rs, ok := c.ClipMapped(fresh, target.PageSize); !ok || len(rs) != 1 || rs[0].Addr != fresh {
					t.Errorf("ClipMapped(%#x) = %v, %v", fresh, rs, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// mapHolds reports whether the ranges contain addr.
func mapHolds(ranges []target.Range, addr uint64) bool {
	for _, r := range ranges {
		if addr >= r.Addr && addr-r.Addr < r.Size {
			return true
		}
	}
	return false
}
