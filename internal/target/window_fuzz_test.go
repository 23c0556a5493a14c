package target

import (
	"bytes"
	"errors"
	"testing"

	"visualinux/internal/ctypes"
	"visualinux/internal/mem"
)

// copyChain is the target a windowed-fill fuzz drives: the Sim under a
// wrapper that refuses PageProvider (embedding the Target interface, not the
// Sim, hides it), so every snapshot fill is a windowed copy, and that
// answers each revalidation capability or refuses it. While *fault names a
// page, reads touching it fail though it stays mapped: a stub whose memory
// access faults for a while.
type copyChain struct {
	Target
	noJournal, noHash, noMap bool
	fault                    *uint64
}

var errFault = errors.New("injected read fault")

func (c copyChain) ReadMemory(addr uint64, buf []byte) error {
	if f := *c.fault; f != 0 && addr < f+PageSize && addr+uint64(len(buf)) > f {
		return errFault
	}
	return c.Target.ReadMemory(addr, buf)
}

func (c copyChain) DirtySince(mark uint64) ([]Range, uint64, bool) {
	if c.noJournal {
		return nil, 0, false
	}
	return DirtySince(c.Target, mark)
}

func (c copyChain) HashBlocks(addr, size uint64) ([]uint64, bool) {
	if c.noHash {
		return nil, false
	}
	return HashBlocks(c.Target, addr, size)
}

func (c copyChain) ClipMapped(addr, size uint64) ([]Range, bool) {
	if c.noMap {
		return nil, false
	}
	return ClipMapped(c.Target, addr, size)
}

// fuzzBytes hands out the fuzz input a byte at a time (zeros once spent).
type fuzzBytes []byte

func (b *fuzzBytes) u8() uint64 {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return uint64(v)
}

func (b *fuzzBytes) u16() uint64 { return b.u8() | b.u8()<<8 }

// windowRead is one read through the snapshot, kept as an oracle: the
// generation it ran at and the bytes it returned (ok false: it failed).
type windowRead struct {
	r    Range
	gen  uint64
	data []byte
	ok   bool
}

// FuzzSnapshotWindows differentially checks windowed copy fills against the
// backing memory over a schedule of reads, prefetches, batch prefetches,
// journaled writes (each followed by a stop, which may map a new page),
// stops that start or end a read fault on one page, invalidations and
// figure-style change checks. Every read must return the memory's bytes at
// that moment, or fail where a read through the target fails; RangesUnchangedSince over a range read at generation g must never
// report it unchanged when its bytes differ from what that read returned,
// or when that read failed.
func FuzzSnapshotWindows(f *testing.F) {
	f.Add([]byte{0, 0, 0x10, 0, 0x20, 0, 4, 0, 0x30, 0, 8, 0, 3, 0})
	f.Add([]byte{1, 1, 0, 0x0f, 0xff, 0x0a, 4, 0x04, 0x10, 5, 0, 0, 0x0f, 0xf0, 0x0a, 3, 0})
	f.Add([]byte{7, 2, 3, 0x05, 0x00, 0x20, 0x00, 0x00, 0x0c, 0x00, 0x10, 0, 0x10, 0, 0x14, 4, 0x08, 0x30, 2, 0, 0x30, 0x18, 3, 1})
	f.Add([]byte{2, 0, 0x00, 0x2c, 0x00, 0x04, 4, 0x80, 0x2c, 0x07, 0, 0x00, 0x2c, 0x00, 0x04, 3, 1, 6, 0, 0x10, 0, 0x40, 3, 0})
	// A window read while its page faults, read again once the fault ends,
	// then checked since the failed read.
	f.Add([]byte{0, 0, 0x00, 0x10, 0x08, 0x00, 7, 1, 0, 0x00, 0x1c, 0x08, 0x00, 7, 11, 0, 0x00, 0x1c, 0x08, 0x00, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		const arena = 10 * PageSize
		lo := uint64(0x6000_0000) // arena page 0 and pages 4, 8, 9 start unmapped
		m := mem.New()
		for _, pg := range []uint64{1, 2, 3, 5, 6, 7} {
			page := make([]byte, PageSize)
			for i := range page {
				page[i] = byte(uint64(i)*31 + pg)
			}
			m.Write(lo+pg*PageSize, page)
		}
		caps := in.u8()
		var fault uint64
		chain := copyChain{Target: NewSim(m, ctypes.NewRegistry()),
			noJournal: caps&1 != 0, noHash: caps&2 != 0, noMap: caps&4 != 0, fault: &fault}
		s := NewSnapshot(chain)
		// backing is the memory's content; a read of it through the chain
		// may fail under a fault while the bytes stay as they are, and the
		// cache may then serve bytes the journal or hashes prove unchanged.
		backing := func(r Range) ([]byte, bool) {
			b := make([]byte, r.Size)
			return b, m.Read(r.Addr, b) == nil
		}
		chainFails := func(r Range) bool {
			return chain.ReadMemory(r.Addr, make([]byte, r.Size)) != nil
		}
		span := func() Range { // 1 byte to 3 KiB anywhere in the arena
			return Range{Addr: lo + in.u16()%arena, Size: 1 + in.u16()%(3*FillWindow)}
		}
		var reads []windowRead
		for step := 0; step < 256 && len(in) > 0; step++ {
			switch in.u8() % 8 {
			case 0:
				r := span()
				got := make([]byte, r.Size)
				err := s.ReadMemory(r.Addr, got)
				want, ok := backing(r)
				if err != nil && !chainFails(r) {
					t.Fatalf("step %d: read %#x+%d failed (%v) where the target reads", step, r.Addr, r.Size, err)
				}
				if err == nil && (!ok || !bytes.Equal(got, want)) {
					t.Fatalf("step %d: read %#x+%d returned bytes the memory does not hold", step, r.Addr, r.Size)
				}
				if len(reads) < 64 {
					reads = append(reads, windowRead{r, s.Generation(), want, err == nil})
				}
			case 1:
				r := span()
				s.Prefetch(r.Addr, r.Size)
			case 2:
				rs := make([]Range, 1+in.u8()%4)
				for i := range rs {
					rs[i] = span()
				}
				s.PrefetchRanges(rs)
			case 3:
				if len(reads) == 0 {
					continue
				}
				rd := reads[in.u8()%uint64(len(reads))]
				if !s.RangesUnchangedSince([]Range{rd.r}, rd.gen) {
					continue
				}
				now, ok := backing(rd.r)
				if !rd.ok {
					t.Fatalf("step %d: %#x+%d reported unchanged since gen %d, whose read failed", step, rd.r.Addr, rd.r.Size, rd.gen)
				}
				if !ok || !bytes.Equal(now, rd.data) {
					t.Fatalf("step %d: %#x+%d reported unchanged since gen %d, but its bytes changed", step, rd.r.Addr, rd.r.Size, rd.gen)
				}
				if len(reads) < 64 {
					reads = append(reads, windowRead{rd.r, s.Generation(), now, true})
				}
			case 4:
				// The target runs: a short journaled write (mapping its page
				// if it was unmapped), then it stops again.
				addr := lo + in.u16()%arena
				w := make([]byte, 1+in.u8()%16)
				for i := range w {
					w[i] = byte(in.u8())
				}
				m.Write(addr, w)
				s.Advance()
			case 5:
				s.Advance()
			case 6:
				if in.u8()%4 == 0 {
					s.Invalidate()
				}
			case 7:
				// A stop that starts a fault on one page or ends it.
				fault = 0
				if pg := in.u8() % 12; pg < 10 {
					fault = lo + pg*PageSize
				}
				s.Advance()
			}
		}
	})
}
