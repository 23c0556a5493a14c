package target

import (
	"sync/atomic"
	"time"
)

// LatencyModel prices one read transaction on a slow debug link. The paper
// measures KGDB over serial on a Raspberry Pi 400 at roughly 5 ms per
// retrieved u64 — latency-bound, not bandwidth-bound — so the model charges
// a fixed per-transaction cost plus a small per-byte cost.
type LatencyModel struct {
	PerRead time.Duration // round-trip cost charged per transaction
	PerByte time.Duration // serial bandwidth cost per transferred byte
	// PerContinuation is the round-trip cost of a follow-up packet of an
	// already-open transfer (a qXfer chunk reply): the stub streams a reply
	// it has already prepared, so a continuation pays the wire turnaround
	// but never the ~PerRead memory-walk cost of opening a transfer.
	PerContinuation time.Duration
	// PerHashCheck is the round-trip cost of one stub-side metadata query —
	// a block-hash exchange or a dirty-range journal poll. The stub walks
	// memory it already has mapped and replies with a few dozen bytes, so
	// this sits an order of magnitude under PerRead: revalidating a stale
	// page by hash must be much cheaper than refetching it, or the
	// incremental path would be pointless.
	PerHashCheck time.Duration
}

// Cost prices one transaction of n bytes.
func (m LatencyModel) Cost(n int) time.Duration {
	return m.PerRead + time.Duration(n)*m.PerByte
}

// LinkCost prices a whole transfer mix on the modeled link: txns opened
// transfers, conts continuation packets, n bytes moved. This is the
// deterministic cost function the RSP packet-size benchmarks use — no wall
// clock, so the comparison across packet sizes is exact.
func (m LatencyModel) LinkCost(txns, conts, n uint64) time.Duration {
	return time.Duration(txns)*m.PerRead +
		time.Duration(conts)*m.PerContinuation +
		time.Duration(n)*m.PerByte
}

// DefaultKGDB is the "KGDB (rpi-400)" personality of Table 4.
var DefaultKGDB = LatencyModel{
	PerRead:         5 * time.Millisecond,
	PerByte:         2 * time.Microsecond,
	PerContinuation: 50 * time.Microsecond,
	PerHashCheck:    500 * time.Microsecond,
}

// Latency wraps a target with a latency model. Every ReadMemory that
// reaches it is one modeled transaction; the accumulated cost is read back
// with VirtualElapsed. Layer a Snapshot on top and cache hits never get
// here — that is exactly the coalescing win Table 4's KGDB column shows.
//
// Latency declares only what it prices or refuses: reads, hash and journal
// queries, and zero-copy pages (refused). The memory map, symbols and types
// are local metadata, found below it at no link cost.
type Latency struct {
	Layer
	model   LatencyModel
	stats   Stats
	virtual atomic.Int64 // accumulated modeled nanoseconds
}

// WithLatency wraps t with the given cost model.
func WithLatency(t Target, model LatencyModel) *Latency {
	return &Latency{Layer: Layer{t}, model: model}
}

// ReadMemory implements Target, charging the model per transaction.
func (l *Latency) ReadMemory(addr uint64, buf []byte) error {
	l.stats.CountRead(len(buf))
	l.charge(l.model.Cost(len(buf)))
	return l.Target.ReadMemory(addr, buf)
}

// PageData refuses PageProvider: a modeled serial link has no same-process
// pages, so every cache fill above it must pay the link.
func (l *Latency) PageData(uint64) ([]byte, bool) { return nil, false }

// charge accounts one modeled cost on the virtual clock.
func (l *Latency) charge(cost time.Duration) { l.virtual.Add(int64(cost)) }

// HashBlocks implements PageHasher when the chain below does, charging the
// metadata round trip plus the wire cost of the returned hashes.
func (l *Latency) HashBlocks(addr, size uint64) ([]uint64, bool) {
	hashes, ok := HashBlocks(l.Target, addr, size)
	if ok {
		l.stats.HashChecks.Add(1)
		l.charge(l.model.PerHashCheck + time.Duration(len(hashes)*8)*l.model.PerByte)
	}
	return hashes, ok
}

// DirtySince implements DirtyTracker when the chain below does. One cheap
// metadata round trip: the journal lives on the stub side and its reply is a
// handful of ranges.
func (l *Latency) DirtySince(mark uint64) ([]Range, uint64, bool) {
	d, have := Find[DirtyTracker](l.Target)
	if !have {
		return nil, 0, false
	}
	ranges, next, ok := d.DirtySince(mark)
	l.charge(l.model.PerHashCheck + time.Duration(len(ranges)*16)*l.model.PerByte)
	return ranges, next, ok
}

// VirtualElapsed returns the modeled time accumulated so far.
func (l *Latency) VirtualElapsed() time.Duration {
	return time.Duration(l.virtual.Load())
}

// Stats implements Target: the counters of transactions that actually
// crossed the modeled link.
func (l *Latency) Stats() *Stats { return &l.stats }

var (
	_ Target       = (*Latency)(nil)
	_ PageProvider = (*Latency)(nil)
)
