package core

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"visualinux/internal/obs"
	"visualinux/internal/panes"
	"visualinux/internal/render"
	"visualinux/internal/stream"
)

// This file is a managed session's publish plane: the per-pane
// serialization cache the poll path (GET /api/pane) and the push path
// (/stream) share, and the fan-out of pane deltas to the session's stream
// broker. Change detection keys on the same pane Version + tree epoch the
// weak ETags use, and a pushed frame carries the same cache entry a GET
// would write, so a stream frame at epoch E is byte-identical to GET
// /api/pane at epoch E. The entry also keeps its body quoted once as a
// JSON string, so N stream clients cost one encode and one quote. Each
// session owns its broker: one session's fan-out never sees another
// session's clients.

// paneKey names one pane+format entry of the serialization cache.
type paneKey struct {
	pane   int
	format string
}

// CachedPane is one serialized pane representation. Entries are replaced,
// never mutated, when the pane moves on, so Body and the quoted form stay
// valid for any frame still queued to a stream client.
type CachedPane struct {
	ETag  string
	CType string
	Body  []byte

	quoteOnce sync.Once
	quoted    []byte
}

// QuotedBody returns Body as a JSON string literal, the form an SSE event
// carries. It is quoted on first use and kept beside the body, so the
// stream clients of a (pane, version, epoch, format) share one quote.
func (c *CachedPane) QuotedBody() []byte {
	c.quoteOnce.Do(func() {
		// Quoting a compact JSON body escapes every '"': about a quarter more.
		c.quoted = render.AppendJSONString(make([]byte, 0, len(c.Body)+len(c.Body)/4+2), c.Body)
	})
	return c.quoted
}

// pubState is the last (version, epoch) a pane was fanned out at.
type pubState struct {
	version int
	epoch   int
}

// SerializePane returns the pane's serialized representation in the given
// format (json, text or dot), from the per-pane+format cache when the
// (version, epoch) ETag still matches, rendering and caching otherwise.
// The caller holds the session's lock (read or write). The bool reports a
// cache hit.
func (ms *ManagedSession) SerializePane(p *panes.Pane, format string) (*CachedPane, bool) {
	etag := ms.PaneETag(p, format)
	key := paneKey{p.ID, format}
	ms.cacheMu.Lock()
	c := ms.paneCache[key]
	ms.cacheMu.Unlock()
	if c != nil && c.ETag == etag {
		return c, true
	}
	if ms.RenderStall != nil {
		ms.RenderStall(p.ID, format)
	}
	t0 := time.Now()
	// Presize from the stale entry: a pane's next version is about as large
	// as its last, so the writer appends without regrowing.
	var buf []byte
	if c != nil {
		buf = make([]byte, 0, len(c.Body)+len(c.Body)/8)
	}
	var body []byte
	var ctype string
	switch format {
	case "text":
		ctype = "text/plain; charset=utf-8"
		body = render.AppendText(buf, p.Graph)
	case "dot":
		ctype = "text/vnd.graphviz"
		body = render.AppendDOT(buf, p.Graph)
	default:
		ctype = "application/json"
		body = render.AppendJSON(buf, p.Graph)
	}
	c = &CachedPane{ETag: etag, CType: ctype, Body: body}
	ms.cacheMu.Lock()
	ms.paneCache[key] = c
	ms.cacheMu.Unlock()
	ms.Obs.ObserveStage("render", time.Since(t0))
	return c, false
}

// ClearPaneCache drops every cached serialization and publish state —
// required after an import, whose restored panes restart version/epoch
// numbering and could otherwise alias a stale cache entry byte-for-byte
// ETag-equal to very different content. The caller holds the session's
// write lock.
func (ms *ManagedSession) ClearPaneCache() {
	ms.cacheMu.Lock()
	ms.paneCache = make(map[paneKey]*CachedPane)
	ms.cacheMu.Unlock()
	ms.lastPub = make(map[int]pubState)
}

// PaneETag is the weak validator over pane version + tree epoch shared by
// the poll path (ETag / If-None-Match) and the stream plane (frame
// identity + change detection). The caller holds the session's lock.
func (ms *ManagedSession) PaneETag(p *panes.Pane, format string) string {
	// Appended by hand, one allocation: every GET and every fan-out
	// diff computes it, 304s included.
	b := make([]byte, 0, 48)
	b = append(b, `W/"p`...)
	b = strconv.AppendInt(b, int64(p.ID), 10)
	b = append(b, ".v"...)
	b = strconv.AppendInt(b, int64(p.Version), 10)
	b = append(b, ".e"...)
	b = strconv.AppendInt(b, int64(ms.Session.Tree.Epoch()), 10)
	b = append(b, '.')
	b = append(b, format...)
	return string(append(b, '"'))
}

// StopEvent runs one stop event end to end under the session's write
// lock: step advances the world (a workload step and extraction round,
// say), then every pane whose version/epoch moved is serialized once per
// in-use format and fanned out to the session's stream clients. The
// round's span tree (step, per-pane serialization, per-client enqueue) is
// retained in the TraceStore under stream.FanoutTracePane, and the metrics
// history ring takes a snapshot on every round — stream health stays
// queryable after the fact, independent of any periodic snapshot timer.
func (ms *ManagedSession) StopEvent(step func() error) error {
	ms.Lock()
	defer ms.Unlock()
	o := ms.Obs
	tr := o.NewTrace("stream.round")
	sp := tr.StartSpan("round.step")
	stepErr := step()
	sp.End()
	t0 := time.Now()
	frames := 0
	if stepErr == nil {
		frames = ms.PublishLocked(tr)
	}
	fanout := time.Since(t0)
	if root := tr.Root(); root != nil {
		root.TagUint("frames", uint64(frames))
		root.TagUint("clients", uint64(ms.Broker.ClientCount()))
	}
	if export := o.FinishTrace(tr); export != nil {
		o.Traces.Record(stream.FanoutTracePane, "stream.fanout",
			float64(fanout.Nanoseconds())/1e6, export)
	}
	o.History.Snapshot(o.Registry)
	return stepErr
}

// PublishLocked diffs every pane against its last published (version,
// epoch), serializes and quotes the changed ones once per format that has
// at least one subscriber, and hands the frames to the broker. Every call
// records each pane's (version, epoch), subscribers or not: a client that
// subscribes later gets those panes in its catch-up snapshot, so the next
// round must not send them again. Interactive mutations (v-commands,
// imports) call it with a nil tracer so stream clients see the same
// changes a poller would. The caller holds the session's write lock.
// Returns the number of frames published.
func (ms *ManagedSession) PublishLocked(tr *obs.Tracer) int {
	tree := ms.Session.Tree
	if tree == nil {
		return 0
	}
	var formats []string
	if ms.Broker.ClientCount() > 0 {
		for f := range ms.Broker.FormatsInUse() {
			formats = append(formats, f)
		}
		sort.Strings(formats)
	}
	t0 := time.Now()
	o := ms.Obs
	epoch := tree.Epoch()
	var frames []*stream.Frame
	root := tr.Root()
	panes := tree.Panes()
	for _, p := range panes {
		if st, ok := ms.lastPub[p.ID]; ok && st.version == p.Version && st.epoch == epoch {
			continue
		}
		for _, format := range formats {
			sp := root.StartChild("fanout.serialize")
			c, hit := ms.SerializePane(p, format)
			quoted := c.QuotedBody()
			sp.TagUint("pane", uint64(p.ID)).Tag("format", format).
				Tag("cache", map[bool]string{true: "hit", false: "miss"}[hit])
			sp.End()
			countCache(o, hit)
			frames = append(frames, &stream.Frame{
				Pane: p.ID, Version: p.Version, Epoch: epoch,
				ETag: c.ETag, Format: format, Body: c.Body, Quoted: quoted,
			})
		}
		ms.lastPub[p.ID] = pubState{version: p.Version, epoch: epoch}
	}
	if len(ms.lastPub) > len(panes) { // a pane closed: forget it
		live := make(map[int]bool, len(panes))
		for _, p := range panes {
			live[p.ID] = true
		}
		for id := range ms.lastPub {
			if !live[id] {
				delete(ms.lastPub, id)
			}
		}
	}
	if len(frames) == 0 {
		return 0
	}
	ms.round++
	ms.Broker.Publish(ms.round, frames, root)
	o.StreamRounds.Inc()
	o.ObserveFanout(time.Since(t0))
	return len(frames)
}

// FanoutRound reports how many fan-out rounds the session has published
// (the SSE frame's round field). The caller holds the session's lock.
func (ms *ManagedSession) FanoutRound() uint64 { return ms.round }

// countCache records whether a frame's body came from the pane cache.
func countCache(o *obs.Observer, hit bool) {
	if hit {
		o.StreamCacheHits.Inc()
		return
	}
	o.StreamCacheMisses.Inc()
}

// SnapshotFrames serializes the client's subscribed panes at their current
// state — the on-connect catch-up push. The caller holds the session's
// lock (read suffices: the tree cannot change, and the cache has its own
// lock).
func (ms *ManagedSession) SnapshotFrames(c *stream.Client) []*stream.Frame {
	tree := ms.Session.Tree
	if tree == nil {
		return nil
	}
	epoch := tree.Epoch()
	var frames []*stream.Frame
	for _, p := range tree.Panes() {
		if c.Subs != nil {
			if _, ok := c.Subs[p.ID]; !ok {
				continue
			}
		}
		cp, hit := ms.SerializePane(p, c.Format)
		countCache(ms.Obs, hit)
		frames = append(frames, &stream.Frame{
			Pane: p.ID, Version: p.Version, Epoch: epoch,
			ETag: cp.ETag, Format: c.Format, Body: cp.Body, Quoted: cp.QuotedBody(),
		})
	}
	return frames
}
