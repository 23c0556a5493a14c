// Package target defines the debug-target abstraction every layer above the
// simulated kernel speaks: typed memory reads, a symbol table, and access to
// the C type registry — exactly the interface GDB exposes to its front-ends.
//
// The package is built as the system's performance layer, not just its
// plumbing. The paper's §5.4 measurement (KGDB at ~5 ms per read
// transaction) shows extraction cost is dominated by per-read round trips,
// so everything here is shaped around issuing fewer, larger transactions:
//
//   - Stats counts reads, bytes, and link-level transactions with atomics,
//     so any number of extraction goroutines can share one target;
//   - Latency (WithLatency) models the KGDB serial link on a virtual clock,
//     charging per transaction and per byte;
//   - Snapshot is a read-through cache keyed by page and filled by 1 KiB
//     window, valid for the lifetime of a stop event — cache hits never
//     reach the modeled link;
//   - Prefetch/ReadStruct coalesce a whole object into one transaction,
//     which the snapshot cache then serves field by field for free.
package target

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"visualinux/internal/ctypes"
)

// Symbol is one entry of the debug symbol table: a named, typed address
// (what GDB gets from vmlinux's symtab + DWARF).
type Symbol struct {
	Name string
	Addr uint64
	Type *ctypes.Type // nil for stripped/untyped symbols
}

// Stats counts a target's read traffic. All counters are atomic: targets
// are shared by concurrent extraction workers, and the Table 4 harness
// snapshots them around every plot.
type Stats struct {
	Reads        atomic.Uint64 // ReadMemory calls (logical read requests)
	BytesRead    atomic.Uint64 // total bytes transferred
	Transactions atomic.Uint64 // link-level round trips (>= Reads when reads split)
	// Continuations counts follow-up packets of an already-open transfer
	// (qXfer chunk replies): round trips that stream a reply the stub has
	// already prepared, so they never re-pay the per-transaction memory-walk
	// cost the paper measures at ~5 ms.
	Continuations atomic.Uint64
	// HashChecks counts stub-side metadata round trips (block-hash or
	// dirty-range queries) issued to revalidate stale snapshot pages instead
	// of refetching them.
	HashChecks atomic.Uint64
}

// CountRead records one logical read of n bytes carried by one transaction.
func (s *Stats) CountRead(n int) {
	s.Reads.Add(1)
	s.BytesRead.Add(uint64(n))
	s.Transactions.Add(1)
}

// Snapshot returns the current (reads, bytes) totals.
func (s *Stats) Snapshot() (reads, bytes uint64) {
	return s.Reads.Load(), s.BytesRead.Load()
}

// Totals returns all three counters at once.
func (s *Stats) Totals() (reads, bytes, transactions uint64) {
	return s.Reads.Load(), s.BytesRead.Load(), s.Transactions.Load()
}

// Target is a stopped debuggee: readable memory, symbols, and types.
// Implementations must be safe for concurrent readers.
type Target interface {
	// ReadMemory fills buf from target memory at addr, failing if any byte
	// of the range is unreadable.
	ReadMemory(addr uint64, buf []byte) error
	// LookupSymbol finds a symbol by name.
	LookupSymbol(name string) (Symbol, bool)
	// SymbolAt reverse-maps an address to a symbol name (exact match).
	SymbolAt(addr uint64) (string, bool)
	// Types is the DWARF stand-in: the registry of C type layouts.
	Types() *ctypes.Registry
	// Stats exposes the target's read counters.
	Stats() *Stats
}

// Underlier is implemented by every target wrapper, exposing the next layer
// down so chain walkers (Find, AttachTracer) can see past it.
type Underlier interface {
	Under() Target
}

// Layer is embedded by target wrappers: it holds the wrapped target, passes
// symbols and types straight through, and is the wrapper's Underlier.
type Layer struct{ Target }

// Under returns the wrapped target.
func (l Layer) Under() Target { return l.Target }

// Find returns the first layer of t's wrapper chain — t itself, then each
// Under() in turn — that declares capability C. This is the one way a
// capability is looked up: a wrapper declares a capability only when it
// changes it (counts it, prices it or refuses it), and every other layer is
// seen through, so nothing needs hand-forwarding and nothing is dropped by
// a wrapper that forgot to.
func Find[C any](t Target) (C, bool) {
	for t != nil {
		if c, ok := t.(C); ok {
			return c, true
		}
		u, ok := t.(Underlier)
		if !ok {
			break
		}
		t = u.Under()
	}
	var zero C
	return zero, false
}

// Prefetcher is implemented by targets that can pull a memory range close
// (into a cache) ahead of fine-grained reads. Prefetch is advisory: errors
// are swallowed and the range may be partially unavailable.
type Prefetcher interface {
	Prefetch(addr, size uint64)
}

// Range describes one contiguous span of target memory.
type Range struct {
	Addr uint64
	Size uint64
}

// End returns the first address past the range.
func (r Range) End() uint64 { return r.Addr + r.Size }

// MergeRanges sorts ranges by address and merges overlapping or adjacent
// ones, dropping empties. Wrapping ranges are clamped at the top of the
// address space. The input slice may be reordered.
func MergeRanges(ranges []Range) []Range {
	rs := ranges[:0]
	for _, r := range ranges {
		if r.Size == 0 {
			continue
		}
		if r.Addr+r.Size < r.Addr {
			r.Size = -r.Addr
		}
		rs = append(rs, r)
	}
	if len(rs) == 0 {
		return nil
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].Addr < rs[j].Addr })
	out := rs[:1]
	for _, r := range rs[1:] {
		cur := &out[len(out)-1]
		// Inclusive last addresses avoid end-address wraparound at the top
		// of the address space (clamping guarantees Addr+Size-1 >= Addr).
		curLast := cur.Addr + cur.Size - 1
		rLast := r.Addr + r.Size - 1
		if r.Addr == 0 || r.Addr-1 <= curLast { // overlapping or adjacent
			if rLast > curLast {
				cur.Size = rLast - cur.Addr + 1
			}
		} else {
			out = append(out, r)
		}
	}
	return out
}

// RangeProber is implemented by targets that know the target's memory map.
// ClipMapped intersects [addr, addr+size) with the mapped ranges, returning
// the readable subranges in ascending order. ok is false when the target
// cannot tell (an RSP stub without a memory-map annex); callers must then
// treat the whole range as potentially mapped. Probing is metadata, like
// symbol lookup: it never costs link transactions once the map is loaded.
type RangeProber interface {
	ClipMapped(addr, size uint64) (ranges []Range, ok bool)
}

// ClipMapped probes the memory map of t's chain when it has one. See
// RangeProber.
func ClipMapped(t Target, addr, size uint64) ([]Range, bool) {
	if p, ok := Find[RangeProber](t); ok {
		return p.ClipMapped(addr, size)
	}
	return nil, false
}

// PageProvider is implemented by targets whose backing pages live in this
// process and are guaranteed immutable while shared — the simulated machine's
// CoW page store. PageData returns the stable backing slice of addr's page;
// ok=false means the page is mutable, unmapped, or not local, and the caller
// must read a copy through ReadMemory instead.
//
// This is a zero-copy capability, not a read: callers may alias the returned
// slice indefinitely and must never write through it. A link-modeling
// wrapper refuses it (Latency.PageData always answers ok=false) and the RSP
// client never declares it — a modeled or real serial link has no
// same-process pages to share, and reaching the sim's pages through it would
// let cache fills skip the per-byte cost the paper measures.
type PageProvider interface {
	PageData(addr uint64) (data []byte, ok bool)
}

// BatchPrefetcher is implemented by caching targets that can fill many
// ranges at once, merging adjacent ranges into coalesced link transactions
// and clipping them to the mapped memory map.
type BatchPrefetcher interface {
	PrefetchRanges(ranges []Range)
}

// PrefetchBatch hints that every given range is about to be read field by
// field — the cross-element companion of Prefetch: a container walk collects
// all yielded element extents and hands them over in one pass, so adjacent
// elements (array slots, contiguous slab objects) merge into single fills.
// Advisory like Prefetch: errors are swallowed, unmapped stretches are
// skipped, raw targets ignore it.
func PrefetchBatch(t Target, ranges []Range) {
	rs := make([]Range, 0, len(ranges))
	for _, r := range ranges {
		if r.Addr == 0 || r.Size == 0 {
			continue
		}
		if r.Size > maxPrefetch {
			r.Size = maxPrefetch
		}
		rs = append(rs, r)
	}
	if len(rs) == 0 {
		return
	}
	if bp, ok := Find[BatchPrefetcher](t); ok {
		bp.PrefetchRanges(rs)
		return
	}
	for _, r := range rs {
		Prefetch(t, r.Addr, r.Size)
	}
}

// maxPrefetch bounds a single coalesced object fetch; anything larger is
// walked via containers anyway, so prefetching it whole would waste link
// bandwidth.
const maxPrefetch = 64 << 10

// Prefetch hints that [addr, addr+size) is about to be read field by field.
// On caching targets this coalesces the whole range into large transactions;
// on raw targets it is a no-op (never a wasted read).
func Prefetch(t Target, addr, size uint64) {
	if addr == 0 || size == 0 {
		return
	}
	if size > maxPrefetch {
		size = maxPrefetch
	}
	if addr+size < addr {
		size = -addr // clamp a wrapping range (poisoned pointer) at the top
	}
	if p, ok := Find[Prefetcher](t); ok {
		p.Prefetch(addr, size)
	}
}

// ReadStruct batches the fetch of a whole typed object: one transaction for
// the object instead of one per field. The ViewCL interpreter calls this
// when materializing a box, so the per-field reads that follow are cache
// hits on snapshot-backed targets.
func ReadStruct(t Target, addr uint64, typ *ctypes.Type) {
	if typ == nil {
		return
	}
	Prefetch(t, addr, typ.Size())
}

// --- scalar read helpers ------------------------------------------------------

// scratch8 pools the byte buffers the scalar helpers read through. A local
// array would be cleaner, but a slice of it passed through the Target
// interface escapes, and these helpers run once per pointer chase — the
// per-call heap traffic was a top allocation site under profile.
var scratch8 = sync.Pool{New: func() any { return new([8]byte) }}

// ReadU8 reads one byte.
func ReadU8(t Target, addr uint64) (uint8, error) {
	bp := scratch8.Get().(*[8]byte)
	err := t.ReadMemory(addr, bp[:1])
	v := bp[0]
	scratch8.Put(bp)
	if err != nil {
		return 0, err
	}
	return v, nil
}

// ReadU16 reads a little-endian 16-bit value.
func ReadU16(t Target, addr uint64) (uint16, error) {
	bp := scratch8.Get().(*[8]byte)
	err := t.ReadMemory(addr, bp[:2])
	v := uint16(bp[0]) | uint16(bp[1])<<8
	scratch8.Put(bp)
	if err != nil {
		return 0, err
	}
	return v, nil
}

// ReadU32 reads a little-endian 32-bit value.
func ReadU32(t Target, addr uint64) (uint32, error) {
	bp := scratch8.Get().(*[8]byte)
	err := t.ReadMemory(addr, bp[:4])
	v := uint32(bp[0]) | uint32(bp[1])<<8 | uint32(bp[2])<<16 | uint32(bp[3])<<24
	scratch8.Put(bp)
	if err != nil {
		return 0, err
	}
	return v, nil
}

// ReadU64 reads a little-endian 64-bit value.
func ReadU64(t Target, addr uint64) (uint64, error) {
	bp := scratch8.Get().(*[8]byte)
	err := t.ReadMemory(addr, bp[:8])
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(bp[i])
	}
	scratch8.Put(bp)
	if err != nil {
		return 0, err
	}
	return v, nil
}

// ReadUint reads a little-endian unsigned scalar of the given byte size
// (1, 2, 4 or 8 — the sizes C integer layouts produce).
func ReadUint(t Target, addr uint64, size uint64) (uint64, error) {
	switch size {
	case 1:
		v, err := ReadU8(t, addr)
		return uint64(v), err
	case 2:
		v, err := ReadU16(t, addr)
		return uint64(v), err
	case 4:
		v, err := ReadU32(t, addr)
		return uint64(v), err
	case 8:
		return ReadU64(t, addr)
	}
	return 0, fmt.Errorf("target: bad scalar size %d at %#x", size, addr)
}

// cstringChunk is how many bytes ReadCString pulls per transaction. Reading
// byte-at-a-time would cost one modeled KGDB round trip per character;
// chunking keeps strings at one or two transactions.
const cstringChunk = 64

// ReadCString reads a NUL-terminated string at addr, up to max bytes, in
// page-bounded chunks. If no NUL appears within max bytes the truncated
// prefix is returned without error. A string running off the edge of mapped
// memory yields the mapped prefix; only a completely unreadable first byte
// is an error — the same semantics as a byte-wise walk, minus the
// transactions.
func ReadCString(t Target, addr uint64, max int) (string, error) {
	out := make([]byte, 0, 32)
	for read := 0; read < max; {
		n := max - read
		if n > cstringChunk {
			n = cstringChunk
		}
		// Never let a chunk cross a page boundary: page-granular backends
		// fail whole ranges, and we must degrade exactly like a byte walk.
		cur := addr + uint64(read)
		if room := PageSize - int(cur&(PageSize-1)); n > room {
			n = room
		}
		buf := make([]byte, n)
		if err := t.ReadMemory(cur, buf); err != nil {
			if read > 0 {
				break // partial string at a mapping edge: return what we have
			}
			return "", err
		}
		for _, c := range buf {
			if c == 0 {
				return string(out), nil
			}
			out = append(out, c)
		}
		read += n
	}
	return string(out), nil
}
