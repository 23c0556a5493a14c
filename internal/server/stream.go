package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"visualinux/internal/core"
	"visualinux/internal/render"
	"visualinux/internal/stream"
)

// This file is the push half of the server: where handlePane answers a
// poll, /stream holds an SSE connection open and writes each pane delta the
// session's broker delivers the moment a stop event lands. The frames and
// their bytes come from the session's publish plane (core's publish.go):
// a stream frame at epoch E is byte-identical to GET /api/pane at epoch E.

// StreamRound runs one stop event on session id — step its workload,
// re-extract, fan the deltas out — as POST /sessions/{id}/round does; the
// entry point of vlserver's -run-interval loop.
func (s *Server) StreamRound(id string) error {
	ms, ok := s.mgr.Attach(id)
	if !ok {
		return fmt.Errorf("server: no session %q", id)
	}
	return stepRound(ms)
}

// stepRound runs the stop event of a round: advance the session's workload
// one step, re-extract, publish.
func stepRound(ms *core.ManagedSession) error {
	return ms.StopEvent(func() error {
		_, err := ms.StepRound()
		return err
	})
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
func (s *Server) handleStream(ms *core.ManagedSession, w http.ResponseWriter, r *http.Request) {
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

	// Subscribe and push the catch-up snapshot under the session lock, so
	// the snapshot and the first live round cannot interleave. The read
	// lock suffices: publishers take the write lock.
	ms.RLock()
	c := ms.Broker.Subscribe(format, paneIDs)
	ms.Broker.SnapshotTo(c, ms.SnapshotFrames(c))
	ms.RUnlock()
	defer ms.Broker.Unsubscribe(c)

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
func (s *Server) handleStreamDebug(ms *core.ManagedSession, w http.ResponseWriter, r *http.Request) {
	ms.RLock()
	round := ms.FanoutRound()
	ms.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"round":  round,
		"health": ms.Broker.Health(),
	})
}
