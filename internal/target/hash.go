package target

// Sub-page content hashing. A stale snapshot page is revalidated by comparing
// 256 B block hashes against the stub instead of refetching 4 KiB: on a
// serial-class link the hash exchange is ~10x cheaper than the page, and when
// only a few blocks differ (one flag flipped in a pipe_buffer) the refetch is
// sized to the dirty blocks, not the page. 256 B is the ROADMAP's adaptive
// granularity for sparse structures: a per-CPU array that dirties one slot
// re-fetches one block.

// SubPage is the hash/refetch granularity inside a snapshot page.
const SubPage = 256

// BlocksPerPage is how many SubPage blocks one snapshot page holds.
const BlocksPerPage = PageSize / SubPage

// FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// HashBlock is FNV-1a 64 over one block's bytes. Block 0 of guest memory is
// never all-zero-hash-ambiguous: FNV of any input is well-defined and the
// same function runs on both ends of the link, so equality of hashes is
// equality of content for revalidation purposes.
func HashBlock(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// HashSum extends an FNV-1a 64 running hash h with b. Pass fnv basis via
// NewHashSum for the first call.
func HashSum(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// NewHashSum returns the FNV-1a 64 offset basis for use with HashSum.
func NewHashSum() uint64 { return fnvOffset64 }

// SumRanges re-reads each range through t, in order, and returns the FNV-1a
// 64 sum of the bytes: the content witness of a recorded read list. The
// extraction memo compares it against a box's recorded sum, and the
// incremental extractor against a figure's, so both decide "the bytes are
// unchanged" the same way. A failed read returns its error; the caller must
// then treat the content as changed.
func SumRanges(t Target, ranges []Range) (uint64, error) {
	var longest uint64
	for _, rg := range ranges {
		longest = max(longest, rg.Size)
	}
	buf := make([]byte, longest)
	sum := NewHashSum()
	for _, rg := range ranges {
		b := buf[:rg.Size]
		if err := t.ReadMemory(rg.Addr, b); err != nil {
			return 0, err
		}
		sum = HashSum(sum, b)
	}
	return sum, nil
}

// PageHasher is implemented by targets that can hash guest memory on the
// stub side: SubPage-granular FNV-1a 64 hashes of [addr, addr+size), which
// must be SubPage-aligned. ok=false means the capability is absent (then the
// snapshot falls back to refetching the resident blocks of stale pages).
type PageHasher interface {
	HashBlocks(addr, size uint64) (hashes []uint64, ok bool)
}

// DirtyTracker is implemented by targets that journal guest writes: the
// ranges mutated since mark (a cursor from a previous call), the new cursor,
// and whether the journal could answer. A mark beyond the current cursor —
// conventionally ^uint64(0) — is clamped and returns no ranges with a fresh
// cursor, which is how a consumer starts tracking. ok=false means history
// was lost (journal overflow, stub without the annex) and the caller must
// fall back to hash revalidation.
type DirtyTracker interface {
	DirtySince(mark uint64) (ranges []Range, next uint64, ok bool)
}

// HashBlocks asks t's chain for stub-side block hashes. ok=false when
// nothing in the chain hashes.
func HashBlocks(t Target, addr, size uint64) ([]uint64, bool) {
	if h, ok := Find[PageHasher](t); ok {
		return h.HashBlocks(addr, size)
	}
	return nil, false
}

// DirtySince asks t's chain for the write journal since mark. ok=false when
// nothing in the chain tracks writes or history was lost.
func DirtySince(t Target, mark uint64) ([]Range, uint64, bool) {
	if d, ok := Find[DirtyTracker](t); ok {
		return d.DirtySince(mark)
	}
	return nil, 0, false
}
