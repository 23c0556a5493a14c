package target

import (
	"sync/atomic"
	"time"

	"visualinux/internal/obs"
)

// Instrumented is the observability tap of a target chain. It sits at link
// level — typically directly under a Snapshot, so every ReadMemory that
// reaches it is one real (or modeled) link transaction, never a cache hit —
// and does two things per transaction:
//
//   - bumps the shared Observer counters (reads, bytes, transactions) and
//     the per-stage latency histogram;
//   - when a per-extraction tracer is attached (the ViewCL interpreter
//     attaches one for the duration of a run), emits a leaf "target.read"
//     span tagged with the address range, byte count, and — when the
//     underlying target models a slow link — the modeled KGDB nanoseconds.
//
// The tracer is held in an atomic pointer: extraction runs swap it in and
// out while other sessions over the same chain keep reading.
//
// The tap declares only what it observes: link reads and hash queries.
// Everything else — prefetch, the memory map, the write journal, zero-copy
// pages — is found below it (Find) and never crosses the link it watches.
type Instrumented struct {
	Layer
	stats  Stats
	o      *obs.Observer
	tracer atomic.Pointer[obs.Tracer]
	tags   []obs.Tag // static tags stamped on every transaction span

	// virtual is non-nil when the underlying chain accumulates modeled
	// link time (a *Latency); transactions then carry model_ns tags.
	virtual interface{ VirtualElapsed() time.Duration }

	// readHist is the per-stage histogram handle, resolved once: the
	// registry lookup would otherwise cost a lock per link transaction.
	readHist *obs.Histogram
}

// Instrument wraps t with an observability tap feeding o. Static tags
// (e.g. {"cache", "miss"} under a snapshot) are stamped on every
// transaction span.
func Instrument(t Target, o *obs.Observer, tags ...obs.Tag) *Instrumented {
	in := &Instrumented{Layer: Layer{t}, o: o, tags: tags}
	if v, ok := t.(interface{ VirtualElapsed() time.Duration }); ok {
		in.virtual = v
	}
	if o != nil {
		in.readHist = o.Registry.Histogram(`vl_stage_duration_ms{stage="target_read"}`,
			"pipeline stage latency by stage", nil)
	}
	return in
}

// NewObservedSnapshot builds the observed chain a session reads through:
// base → Instrumented → Snapshot, all reporting into o. The tap sits under
// the cache, so it traces only transactions that cross the link, never
// cache hits; tags are stamped on every one. A nil o gives a plain
// snapshot over base.
func NewObservedSnapshot(base Target, o *obs.Observer, tags ...obs.Tag) *Snapshot {
	if o == nil {
		return NewSnapshot(base)
	}
	return NewSnapshot(Instrument(base, o, tags...)).Instrument(o)
}

// SetTracer attaches (or, with nil, detaches) the per-extraction tracer.
// Implements obs.TracerCarrier.
func (in *Instrumented) SetTracer(tr *obs.Tracer) { in.tracer.Store(tr) }

// ReadMemory implements Target: one transaction, observed.
func (in *Instrumented) ReadMemory(addr uint64, buf []byte) error {
	in.stats.CountRead(len(buf))
	if in.o != nil {
		in.o.LinkReads.Inc()
		in.o.LinkTxns.Inc()
		in.o.LinkBytes.Add(uint64(len(buf)))
	}
	tr := in.tracer.Load()
	if tr == nil {
		if in.o == nil {
			return in.Target.ReadMemory(addr, buf)
		}
		// Metrics-only path: histogram the transaction without a span.
		t0 := time.Now()
		v0 := in.virtualNow()
		err := in.Target.ReadMemory(addr, buf)
		d := time.Since(t0) + in.virtualNow() - v0
		in.readHist.Observe(float64(d.Nanoseconds()) / 1e6)
		return err
	}
	sp := tr.StartSpan("target.read")
	sp.TagHex("addr", addr)
	sp.TagUint("bytes", uint64(len(buf)))
	for _, tg := range in.tags {
		sp.Tag(tg.Key, tg.Value)
	}
	t0 := time.Now()
	v0 := in.virtualNow()
	err := in.Target.ReadMemory(addr, buf)
	modeled := in.virtualNow() - v0
	if modeled > 0 {
		sp.TagUint("model_ns", uint64(modeled))
	}
	if err != nil {
		sp.Tag("error", err.Error())
	}
	sp.End()
	d := time.Since(t0) + modeled
	in.readHist.Observe(float64(d.Nanoseconds()) / 1e6)
	return err
}

func (in *Instrumented) virtualNow() time.Duration {
	if in.virtual == nil {
		return 0
	}
	return in.virtual.VirtualElapsed()
}

// HashBlocks implements PageHasher when the chain below does, counting each
// served query as one stub-side metadata round trip.
func (in *Instrumented) HashBlocks(addr, size uint64) ([]uint64, bool) {
	hashes, ok := HashBlocks(in.Target, addr, size)
	if ok {
		in.stats.HashChecks.Add(1)
	}
	return hashes, ok
}

// Stats implements Target.
func (in *Instrumented) Stats() *Stats { return &in.stats }

var (
	_ Target            = (*Instrumented)(nil)
	_ obs.TracerCarrier = (*Instrumented)(nil)
)

// AttachTracer walks t's wrapper chain and attaches tr to every
// obs.TracerCarrier found (nil detaches). It reports whether any carrier
// was reached — false means the chain is uninstrumented and no transaction
// spans will appear.
func AttachTracer(t Target, tr *obs.Tracer) bool {
	found := false
	for t != nil {
		if c, ok := t.(obs.TracerCarrier); ok {
			c.SetTracer(tr)
			found = true
		}
		u, ok := t.(Underlier)
		if !ok {
			break
		}
		t = u.Under()
	}
	return found
}
