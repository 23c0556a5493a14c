package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"visualinux/internal/obs"
	"visualinux/internal/render"
	"visualinux/internal/stream"
)

// This file is the push half of the server: where handlePane answers a
// poll, the stream plane fans pane deltas out to every connected SSE
// client the moment a stop event lands. Change detection keys on the same
// pane Version + tree epoch the weak ETags use, and the bytes shipped are
// the same per-pane+format serialization cache entries a GET would
// return, so a stream frame at epoch E is byte-identical to GET /api/pane
// at epoch E. The entry also keeps its body quoted once as a JSON string;
// each client's SSE event copies that quoted body behind the frame's
// header fields, so N clients cost one encode and one quote, not one
// envelope encode each. Each tenant owns its broker: one session's
// fan-out never sees another session's clients.

// pubState is the last (version, epoch) a pane was fanned out at.
type pubState struct {
	version int
	epoch   int
}

// StreamRound runs one stop event on session id — step its workload,
// re-extract, fan the deltas out — as POST /sessions/{id}/round does; the
// entry point of vlserver's -run-interval loop.
func (s *Server) StreamRound(id string) error {
	t := s.tenantByID(id)
	if t == nil {
		return fmt.Errorf("server: no session %q", id)
	}
	return s.streamRound(t, t.stepRound)
}

// streamRound runs one stop event end to end under the tenant's write
// lock: step advances the world (mutation workload, extractor round, ...),
// then every pane whose version/epoch moved is serialized once per in-use
// format and fanned out to the tenant's stream clients. The round's span
// tree (step, per-pane serialization, per-client enqueue) is retained in
// the TraceStore under stream.FanoutTracePane, and the metrics history
// ring takes a snapshot on every round — stream health stays queryable
// after the fact, independent of the periodic -metrics-interval timer.
func (s *Server) streamRound(t *tenant, step func() error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	o := t.session.Obs
	tr := o.NewTrace("stream.round")
	sp := tr.StartSpan("round.step")
	stepErr := step()
	sp.End()
	t0 := time.Now()
	frames := 0
	if stepErr == nil {
		frames = t.publishLocked(tr)
	}
	fanout := time.Since(t0)
	if root := tr.Root(); root != nil {
		root.TagUint("frames", uint64(frames))
		root.TagUint("clients", uint64(t.broker.ClientCount()))
	}
	if export := o.FinishTrace(tr); export != nil {
		o.Traces.Record(stream.FanoutTracePane, "stream.fanout",
			float64(fanout.Nanoseconds())/1e6, export)
	}
	o.History.Snapshot(o.Registry)
	return stepErr
}

// publishLocked diffs every pane against its last published (version,
// epoch), serializes and quotes the changed ones once per format that has
// at least one subscriber, and hands the frames to the broker. Every round
// records each pane's (version, epoch), subscribers or not: a client that
// subscribes later gets those panes in its catch-up snapshot, so the next
// round must not send them again. Caller holds the tenant's write lock.
// Returns the number of frames published.
func (t *tenant) publishLocked(tr *obs.Tracer) int {
	if t.session.Tree == nil {
		return 0
	}
	var formats []string
	if t.broker.ClientCount() > 0 {
		for f := range t.broker.FormatsInUse() {
			formats = append(formats, f)
		}
		sort.Strings(formats)
	}
	t0 := time.Now()
	o := t.session.Obs
	epoch := t.session.Tree.Epoch()
	var frames []*stream.Frame
	root := tr.Root()
	panes := t.session.Tree.Panes()
	for _, p := range panes {
		if st, ok := t.lastPub[p.ID]; ok && st.version == p.Version && st.epoch == epoch {
			continue
		}
		for _, format := range formats {
			sp := root.StartChild("fanout.serialize")
			c, hit := t.serializePane(p, format)
			quoted := c.quotedBody()
			sp.TagUint("pane", uint64(p.ID)).Tag("format", format).
				Tag("cache", map[bool]string{true: "hit", false: "miss"}[hit])
			sp.End()
			countCache(o, hit)
			frames = append(frames, &stream.Frame{
				Pane: p.ID, Version: p.Version, Epoch: epoch,
				ETag: c.etag, Format: format, Body: c.body, Quoted: quoted,
			})
		}
		t.lastPub[p.ID] = pubState{version: p.Version, epoch: epoch}
	}
	if len(t.lastPub) > len(panes) { // a pane closed: forget it
		live := make(map[int]bool, len(panes))
		for _, p := range panes {
			live[p.ID] = true
		}
		for id := range t.lastPub {
			if !live[id] {
				delete(t.lastPub, id)
			}
		}
	}
	if len(frames) == 0 {
		return 0
	}
	t.round++
	t.broker.Publish(t.round, frames, root)
	o.StreamRounds.Inc()
	o.ObserveFanout(time.Since(t0))
	return len(frames)
}

// countCache records whether a frame's body came from the pane cache.
func countCache(o *obs.Observer, hit bool) {
	if hit {
		o.StreamCacheHits.Inc()
		return
	}
	o.StreamCacheMisses.Inc()
}

// publishAfterMutation fans out any pane changes an interactive handler
// (vplot / vctrl / vchat / import) produced, so stream clients see the
// same mutations a poller would — not only free-run stop events. Caller
// holds the tenant's write lock.
func (t *tenant) publishAfterMutation() {
	t.publishLocked(nil)
}

// snapshotFrames serializes the client's subscribed panes at their
// current state — the on-connect catch-up push. Caller holds t.mu (read
// suffices: the tree cannot change, and the cache has its own lock).
func (t *tenant) snapshotFrames(c *stream.Client) []*stream.Frame {
	if t.session.Tree == nil {
		return nil
	}
	o := t.session.Obs
	epoch := t.session.Tree.Epoch()
	var frames []*stream.Frame
	for _, p := range t.session.Tree.Panes() {
		if c.Subs != nil {
			if _, ok := c.Subs[p.ID]; !ok {
				continue
			}
		}
		cp, hit := t.serializePane(p, c.Format)
		countCache(o, hit)
		frames = append(frames, &stream.Frame{
			Pane: p.ID, Version: p.Version, Epoch: epoch,
			ETag: cp.etag, Format: c.Format, Body: cp.body, Quoted: cp.quotedBody(),
		})
	}
	return frames
}

// streamEvent is the SSE data payload: the frame header plus the pane body
// as a JSON string, so the whole event is one line regardless of format.
// appendStreamEvent writes exactly json.Marshal of this struct without
// building it; the struct stays as the schema the tests hold it to.
type streamEvent struct {
	Seq       uint64 `json:"seq"`
	Round     uint64 `json:"round"`
	Pane      int    `json:"pane"`
	Version   int    `json:"version"`
	Epoch     int    `json:"epoch"`
	ETag      string `json:"etag"`
	Format    string `json:"format"`
	Snapshot  bool   `json:"snapshot,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	Body      string `json:"body"`
}

// appendStreamEvent appends the SSE pane event for f: the event and id
// lines, then the streamEvent payload on its data line. The body goes in as
// the frame's pre-quoted form, so an event costs one copy of it, not an
// encode per client.
func appendStreamEvent(dst []byte, f *stream.Frame) []byte {
	dst = append(dst, "event: pane\nid: "...)
	dst = strconv.AppendUint(dst, f.Seq, 10)
	dst = append(dst, "\ndata: {\"seq\":"...)
	dst = strconv.AppendUint(dst, f.Seq, 10)
	dst = append(dst, `,"round":`...)
	dst = strconv.AppendUint(dst, f.Round, 10)
	dst = append(dst, `,"pane":`...)
	dst = strconv.AppendInt(dst, int64(f.Pane), 10)
	dst = append(dst, `,"version":`...)
	dst = strconv.AppendInt(dst, int64(f.Version), 10)
	dst = append(dst, `,"epoch":`...)
	dst = strconv.AppendInt(dst, int64(f.Epoch), 10)
	dst = append(dst, `,"etag":`...)
	dst = render.AppendJSONString(dst, f.ETag)
	dst = append(dst, `,"format":`...)
	dst = render.AppendJSONString(dst, f.Format)
	if f.Snapshot {
		dst = append(dst, `,"snapshot":true`...)
	}
	if f.Coalesced {
		dst = append(dst, `,"coalesced":true`...)
	}
	dst = append(dst, `,"body":`...)
	dst = append(dst, f.Quoted...)
	return append(dst, "}\n\n"...)
}

// handleStream serves GET /stream: a Server-Sent Events feed of pane
// deltas. Query parameters: format (json|text|dot, default json) and
// panes (comma-separated pane IDs; absent = all panes). The client first
// receives a hello event, then snapshot frames for its panes' current
// state, then one pane event per delta. A consumer that stops reading
// degrades to latest-wins snapshots; disconnecting tears everything down.
func (s *Server) handleStream(t *tenant, w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	switch format {
	case "json", "text", "dot":
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown format %q", format))
		return
	}
	var paneIDs []int
	if raw := r.URL.Query().Get("panes"); raw != "" {
		for _, part := range strings.Split(raw, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("bad pane id %q", part))
				return
			}
			paneIDs = append(paneIDs, id)
		}
	}

	// Subscribe and push the catch-up snapshot under the tenant lock, so
	// the snapshot and the first live round cannot interleave. The read
	// lock suffices: publishers take the write lock.
	t.mu.RLock()
	c := t.broker.Subscribe(format, paneIDs)
	t.broker.SnapshotTo(c, t.snapshotFrames(c))
	t.mu.RUnlock()
	defer t.broker.Unsubscribe(c)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no")
	fmt.Fprintf(w, "event: hello\ndata: {\"client\":%d,\"format\":%q}\n\n", c.ID, format)
	fl.Flush()

	ctx := r.Context()
	var buf []byte // one event at a time, reused for the connection's life
	for {
		f, ok := c.Next(ctx)
		if !ok {
			return
		}
		buf = appendStreamEvent(buf[:0], f)
		if _, err := w.Write(buf); err != nil {
			return
		}
		fl.Flush()
	}
}

// handleStreamDebug serves GET /debug/stream: the broker-wide health
// snapshot — every connected client with its lag, queue depth, and frame
// counters — plus the round counter.
func (s *Server) handleStreamDebug(t *tenant, w http.ResponseWriter, r *http.Request) {
	t.mu.RLock()
	round := t.round
	t.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"round":  round,
		"health": t.broker.Health(),
	})
}
