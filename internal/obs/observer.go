package obs

import (
	"time"
)

// Observer bundles the pieces shared across every extraction of a session:
// the metrics registry, the trace store, and the pre-registered counter
// handles the hot paths bump. Every managed session owns one; vlserver's
// default session, visualinux and perfbench -trace each create one.
// Per-extraction tracers are created per VPlot and feed their results back
// here. Because pane IDs are per session, one Observer's trace store holds
// one session's panes at a time.
//
// A nil *Observer disables everything at the cost of a pointer check.
type Observer struct {
	Registry *Registry
	// Traces retains span trees per pane: the store /debug/trace,
	// /debug/slowlog and the vchat diagnosis layer answer from.
	Traces *TraceStore

	// Link-level traffic (bumped by target.Instrumented, i.e. only what
	// actually crossed the modeled/real link — snapshot hits never count).
	LinkReads *Counter
	LinkBytes *Counter
	LinkTxns  *Counter
	// LinkContinuations counts continuation packets riding an already-open
	// qXfer transfer on the RSP link: follow-up chunks of a reply the stub
	// has already prepared, i.e. round trips that never re-pay the stub's
	// memory-walk cost (bumped by gdbrsp.Client when instrumented).
	LinkContinuations *Counter

	// Snapshot cache behaviour (bumped by target.Snapshot when wired).
	SnapHits          *Counter // page lookups served from cache
	SnapMisses        *Counter // pages fetched from the underlying target
	SnapFills         *Counter // fill transactions (coalesced page-run reads)
	SnapInvalidations *Counter // Invalidate calls (wholesale cache drops)

	// Incremental (generation-tagged) snapshot behaviour.
	SnapAdvances       *Counter // Advance calls (incremental stop boundaries)
	SnapRevalidations  *Counter // stale pages revalidated by content hash
	SnapPromotions     *Counter // stale pages promoted clean by the write journal
	SnapStaleRefetches *Counter // stale pages refetched whole (no hash capability)
	SnapSubpageFills   *Counter // sub-page (256 B block) refetch runs issued
	SnapZeroCopyFills  *Counter // pages filled by aliasing immutable CoW store pages

	// ViewCL-level behaviour.
	PrefetchHints     *Counter // container-iterator prefetch hints issued
	BatchPrefetchRuns *Counter // coalesced cross-element batch-prefetch fills issued
	Extractions       *Counter // completed VPlot extractions
	TraceDrops        *Counter // spans dropped over tracer budgets

	// Incremental extraction behaviour (bumped by the ViewCL memoizer and
	// the core delta extractor).
	BoxReuses       *Counter // boxes reused from the cross-run memo (clean content)
	BoxBuilds       *Counter // boxes materialized from target reads
	FigureReuses    *Counter // whole figures served from the prior VPlot (clean read set)
	FigureUnchanged *Counter // re-extracted figures equal to the displayed graph (pane version kept)

	// Streaming fan-out behaviour (bumped by stream.Broker and the server's
	// stop-event publisher). Sent counts frames written to a client's wire;
	// Coalesced counts deliveries that stood in for one or more superseded
	// frames; Dropped counts the superseded frames themselves (latest-wins
	// victims on slow clients). CacheHits/CacheMisses prove whether fan-out
	// serialization came from the per-pane serialization cache or had to
	// encode.
	StreamFramesSent      *Counter
	StreamFramesCoalesced *Counter
	StreamFramesDropped   *Counter
	StreamRounds          *Counter // stop-event fan-out rounds published
	StreamCacheHits       *Counter // fan-out frames served from the serialization cache
	StreamCacheMisses     *Counter // fan-out frames that had to serialize
	StreamConnects        *Counter
	StreamDisconnects     *Counter
	StreamClients         *Gauge // currently connected stream clients

	// History is the bounded ring of periodic registry snapshots behind
	// /debug/metrics/history (sparklines without a scraper). Populated by
	// StartMetricsHistory or manual History.Snapshot calls.
	History *MetricsHistory
}

// NewObserver creates a fully wired observer with a fresh registry and a
// DefaultTraceStoreDepth trace store.
func NewObserver() *Observer {
	r := NewRegistry()
	o := &Observer{
		Registry: r,
		Traces:   NewTraceStore(DefaultTraceStoreDepth),

		LinkReads:         r.Counter("vl_target_link_reads_total", "read transactions that reached the (modeled) debug link"),
		LinkBytes:         r.Counter("vl_target_link_bytes_total", "bytes transferred over the debug link"),
		LinkTxns:          r.Counter("vl_target_link_transactions_total", "link-level round trips"),
		LinkContinuations: r.Counter("vl_target_link_continuations_total", "qXfer continuation packets (chunks of an already-prepared stub reply)"),

		SnapHits:          r.Counter("vl_snapshot_page_hits_total", "snapshot page lookups served from cache"),
		SnapMisses:        r.Counter("vl_snapshot_page_misses_total", "snapshot pages fetched from the underlying target"),
		SnapFills:         r.Counter("vl_snapshot_fill_transactions_total", "coalesced page-run fill reads issued by the snapshot"),
		SnapInvalidations: r.Counter("vl_snapshot_invalidations_total", "snapshot invalidations (stop-event boundaries)"),

		SnapAdvances:       r.Counter("vl_snapshot_advances_total", "incremental stop boundaries (Advance calls)"),
		SnapRevalidations:  r.Counter("vl_snapshot_revalidations_total", "stale snapshot pages revalidated by content hash"),
		SnapPromotions:     r.Counter("vl_snapshot_dirty_promotions_total", "stale snapshot pages promoted clean by the write journal"),
		SnapStaleRefetches: r.Counter("vl_snapshot_stale_refetches_total", "stale snapshot pages refetched whole (no hash capability in the chain)"),
		SnapSubpageFills:   r.Counter("vl_snapshot_subpage_fills_total", "sub-page (256 B block) refetch runs issued by snapshots"),
		SnapZeroCopyFills:  r.Counter("vl_snapshot_zerocopy_fills_total", "snapshot pages filled by aliasing immutable CoW store pages (no copy, no link traffic)"),

		PrefetchHints:     r.Counter("vl_prefetch_hints_total", "container-iterator prefetch hints issued"),
		BatchPrefetchRuns: r.Counter("vl_batch_prefetch_runs_total", "coalesced cross-element batch-prefetch fills issued by snapshots"),
		Extractions:       r.Counter("vl_extractions_total", "completed VPlot extractions"),
		TraceDrops:        r.Counter("vl_trace_dropped_spans_total", "spans dropped over per-trace budgets"),

		BoxReuses:       r.Counter("vl_extract_box_reuse_total", "boxes reused from the cross-run extraction memo"),
		BoxBuilds:       r.Counter("vl_extract_box_builds_total", "boxes materialized from target reads"),
		FigureReuses:    r.Counter("vl_extract_figure_reuse_total", "figures served whole from the prior VPlot (clean read set)"),
		FigureUnchanged: r.Counter("vl_extract_figure_unchanged_total", "figures re-extracted to a graph identical to the displayed one"),

		StreamFramesSent:      r.Counter("vl_stream_frames_sent_total", "pane delta frames written to stream clients"),
		StreamFramesCoalesced: r.Counter("vl_stream_frames_coalesced_total", "stream deliveries that stood in for superseded frames (latest-wins)"),
		StreamFramesDropped:   r.Counter("vl_stream_frames_dropped_total", "stream frames superseded before delivery on slow clients"),
		StreamRounds:          r.Counter("vl_stream_fanout_rounds_total", "stop-event fan-out rounds published to the stream plane"),
		StreamCacheHits:       r.Counter("vl_stream_serialize_cache_hits_total", "fan-out frames served from the pane serialization cache"),
		StreamCacheMisses:     r.Counter("vl_stream_serialize_cache_misses_total", "fan-out frames that had to serialize a pane"),
		StreamConnects:        r.Counter("vl_stream_connects_total", "stream client subscriptions"),
		StreamDisconnects:     r.Counter("vl_stream_disconnects_total", "stream client disconnects"),
		StreamClients:         r.Gauge("vl_stream_clients", "currently connected stream clients"),

		History: NewMetricsHistory(DefaultMetricsHistorySize),
	}
	r.GaugeFunc("vl_snapshot_hit_ratio", "live page-cache hit ratio (hits / lookups)", func() float64 {
		h, m := o.SnapHits.Value(), o.SnapMisses.Value()
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	})
	r.GaugeFunc("vl_extract_box_reuse_ratio", "fraction of boxes served from the cross-run memo (reuses / (reuses+builds))", func() float64 {
		re, b := o.BoxReuses.Value(), o.BoxBuilds.Value()
		if re+b == 0 {
			return 0
		}
		return float64(re) / float64(re+b)
	})
	return o
}

// StartMetricsHistory starts the periodic registry snapshotter feeding
// o.History and returns a stop function. Call it once per serving process;
// tests drive o.History.Snapshot directly instead.
func (o *Observer) StartMetricsHistory(interval time.Duration) (stop func()) {
	if o == nil {
		return func() {}
	}
	return o.History.Start(o.Registry, interval)
}

// ObserveStage records a pipeline-stage latency (stage in
// {"extract", "render", "target_read", ...}) into the per-stage histogram.
func (o *Observer) ObserveStage(stage string, d time.Duration) {
	if o == nil {
		return
	}
	o.Registry.Histogram(`vl_stage_duration_ms{stage="`+stage+`"}`,
		"pipeline stage latency by stage", nil).Observe(float64(d.Nanoseconds()) / 1e6)
}

// ObserveExtraction records one completed figure/program extraction into
// its per-figure histogram and the extraction counter.
func (o *Observer) ObserveExtraction(figure string, d time.Duration) {
	if o == nil {
		return
	}
	o.Extractions.Inc()
	o.Registry.Histogram(`vl_extraction_duration_ms{figure="`+figure+`"}`,
		"per-figure extraction duration", nil).Observe(float64(d.Nanoseconds()) / 1e6)
	o.ObserveStage("extract", d)
}

// ObserveFanout records how long one stop-event fan-out round spent
// serializing and enqueueing pane deltas for every connected client.
func (o *Observer) ObserveFanout(d time.Duration) {
	if o == nil {
		return
	}
	o.Registry.Histogram("vl_stream_fanout_ms",
		"stop-event fan-out latency (serialize + enqueue for all clients)", nil).
		Observe(float64(d.Nanoseconds()) / 1e6)
}

// ObservePushLag records one delivered frame's stop-to-wire latency: the
// time between the frame being published at a stop event and a client's
// writer dequeuing it for the wire.
func (o *Observer) ObservePushLag(d time.Duration) {
	if o == nil {
		return
	}
	o.Registry.Histogram("vl_stream_push_lag_ms",
		"per-frame stop-to-wire push latency across stream clients", nil).
		Observe(float64(d.Nanoseconds()) / 1e6)
}

// NewTrace opens a per-extraction tracer. The observer only tracks drop
// accounting; the caller owns the tracer's lifecycle.
func (o *Observer) NewTrace(name string) *Tracer {
	if o == nil {
		return nil
	}
	return NewTracer(name)
}

// FinishTrace finalizes a tracer, records its drop count, and returns the
// exported tree (nil on a nil tracer).
func (o *Observer) FinishTrace(tr *Tracer) *SpanExport {
	if tr == nil {
		return nil
	}
	tr.Finish()
	if d := tr.Dropped(); d > 0 && o != nil {
		o.TraceDrops.Add(d)
	}
	return tr.Export()
}
