package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"visualinux/internal/core"
	"visualinux/internal/obs"
	"visualinux/internal/server"
)

// sseEvent mirrors the server's streamEvent envelope.
type sseEvent struct {
	Event     string // SSE event name (hello | pane)
	Seq       uint64 `json:"seq"`
	Round     uint64 `json:"round"`
	Pane      int    `json:"pane"`
	Version   int    `json:"version"`
	Epoch     int    `json:"epoch"`
	ETag      string `json:"etag"`
	Format    string `json:"format"`
	Snapshot  bool   `json:"snapshot"`
	Coalesced bool   `json:"coalesced"`
	Body      string `json:"body"`
}

// sseClient consumes one /stream connection on its own goroutine, tracking
// the newest frame per pane. delay simulates a slow consumer.
type sseClient struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	hello  bool
	latest map[int]sseEvent // pane -> newest frame received
	frames []sseEvent       // every pane frame, in arrival order
	err    error
}

func dialStream(t *testing.T, ts *httptest.Server, query string, delay time.Duration) *sseClient {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	c := &sseClient{cancel: cancel, done: make(chan struct{}), latest: make(map[int]sseEvent)}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/stream"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("dial /stream: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("/stream Content-Type %q", ct)
	}
	go func() {
		defer close(c.done)
		defer resp.Body.Close()
		r := bufio.NewReader(resp.Body)
		var event, data string
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				if err != io.EOF && ctx.Err() == nil {
					c.mu.Lock()
					c.err = err
					c.mu.Unlock()
				}
				return
			}
			line = strings.TrimRight(line, "\n")
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case line == "": // dispatch
				if event == "hello" {
					c.mu.Lock()
					c.hello = true
					c.mu.Unlock()
				} else if event == "pane" {
					var ev sseEvent
					if err := json.Unmarshal([]byte(data), &ev); err != nil {
						c.mu.Lock()
						c.err = fmt.Errorf("bad frame %q: %w", data, err)
						c.mu.Unlock()
						return
					}
					ev.Event = event
					c.mu.Lock()
					c.frames = append(c.frames, ev)
					c.latest[ev.Pane] = ev
					c.mu.Unlock()
					if delay > 0 {
						time.Sleep(delay)
					}
				}
				event, data = "", ""
			}
		}
	}()
	return c
}

func (c *sseClient) close() {
	c.cancel()
	<-c.done
}

func (c *sseClient) snapshot() (map[int]sseEvent, []sseEvent, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	latest := make(map[int]sseEvent, len(c.latest))
	for k, v := range c.latest {
		latest[k] = v
	}
	return latest, append([]sseEvent(nil), c.frames...), c.err
}

// streamFixture is an observed default session served over HTTP with a
// mutation workload — the continuous-run mode in miniature.
type streamFixture struct {
	o   *obs.Observer
	ms  *core.ManagedSession
	srv *server.Server
	ts  *httptest.Server
	pid int // last PID step spawned
}

func newStreamFixture(t *testing.T, figureIDs ...string) *streamFixture {
	t.Helper()
	o := obs.NewObserver()
	srv, ms := serveSession(t, o, figureIDs)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return &streamFixture{o: o, ms: ms, srv: srv, ts: ts, pid: 20000}
}

// step runs one stop event that changes what the CFS runqueue (7-1) shows:
// spawn a runnable task, then mutate, advance, re-extract, fan out. A round
// that re-extracts the same content publishes nothing.
func (f *streamFixture) step(t *testing.T) {
	t.Helper()
	f.pid++
	if _, err := f.ms.Kernel.SpawnTask(f.pid, "steptest", 1); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if err := f.srv.StreamRound(core.DefaultSession); err != nil {
		t.Fatalf("stream round: %v", err)
	}
}

// The acceptance soak: ≥16 concurrent SSE clients (one artificially slow)
// across a continuous run — every client converges on pane content
// byte-identical to what GET returns at the same epoch, and the fan-out
// metrics land in the Prometheus exposition.
func TestStreamSoakByteIdenticalToGET(t *testing.T) {
	f := newStreamFixture(t, "7-1", "3-6")

	const fastN = 15
	clients := make([]*sseClient, 0, fastN+2)
	for i := 0; i < fastN; i++ {
		clients = append(clients, dialStream(t, f.ts, "", 0))
	}
	slow := dialStream(t, f.ts, "", 3*time.Millisecond)
	textClient := dialStream(t, f.ts, "?format=text", 0)
	clients = append(clients, slow, textClient)
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()

	const rounds = 6
	for i := 0; i < rounds; i++ {
		f.step(t)
	}

	// Expected state: GET every pane in both formats (captures body+ETag
	// at the final epoch; the world is quiescent now).
	type want struct {
		body []byte
		etag string
	}
	wantByFormat := map[string]map[int]want{"json": {}, "text": {}}
	for format, m := range wantByFormat {
		for pane := 1; pane <= 2; pane++ {
			resp, body := get(t, f.ts, fmt.Sprintf("/api/pane?id=%d&format=%s", pane, format))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET pane %d: %d", pane, resp.StatusCode)
			}
			m[pane] = want{body: body, etag: resp.Header.Get("ETag")}
		}
	}

	// Every client (including the slow one) converges on the final frames.
	converged := func(c *sseClient, format string) bool {
		latest, _, err := c.snapshot()
		if err != nil {
			t.Fatalf("client error: %v", err)
		}
		for pane, w := range wantByFormat[format] {
			got, ok := latest[pane]
			if !ok || got.ETag != w.etag {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, c := range clients {
		format := "json"
		if c == textClient {
			format = "text"
		}
		for !converged(c, format) {
			if time.Now().After(deadline) {
				latest, _, _ := c.snapshot()
				t.Fatalf("client did not converge; latest=%v want=%v", latest, wantByFormat[format])
			}
			time.Sleep(5 * time.Millisecond)
		}
		latest, frames, _ := c.snapshot()
		for pane, w := range wantByFormat[format] {
			if got := latest[pane]; !bytes.Equal([]byte(got.Body), w.body) {
				t.Fatalf("pane %d (%s): streamed body differs from GET at etag %s", pane, format, w.etag)
			}
		}
		// Frames arrived in strictly increasing seq order.
		for i := 1; i < len(frames); i++ {
			if frames[i].Seq <= frames[i-1].Seq {
				t.Fatalf("frames out of order: seq %d then %d", frames[i-1].Seq, frames[i].Seq)
			}
		}
		// The connect-time snapshot arrived before any delta.
		if len(frames) == 0 || !frames[0].Snapshot {
			t.Fatalf("first frame was not a snapshot (%d frames)", len(frames))
		}
	}

	// Fast JSON clients saw every delta: one frame per pane per round is
	// the ceiling; at minimum each pane's version advanced each round it
	// changed, and nothing was coalesced.
	for _, c := range clients[:fastN] {
		_, frames, _ := c.snapshot()
		for _, fr := range frames {
			if fr.Coalesced {
				t.Fatalf("fast client saw a coalesced frame (seq %d)", fr.Seq)
			}
		}
	}

	// Metrics: per-client lag gauges, frame counters, and the
	// serialization-cache proof appear in the exposition.
	_, expo := get(t, f.ts, "/debug/metrics")
	for _, wantSeries := range []string{
		`vl_stream_client_lag_ms{client="s0"}`,
		`vl_stream_client_queue_depth{client="s0"}`,
		"vl_stream_frames_sent_total",
		"vl_stream_frames_dropped_total",
		"vl_stream_frames_coalesced_total",
		"vl_stream_serialize_cache_hits_total",
		"vl_stream_fanout_rounds_total",
		"vl_stream_fanout_ms_count",
		"vl_stream_push_lag_ms_count",
		"vl_stream_clients 17",
	} {
		if !strings.Contains(string(expo), wantSeries) {
			t.Fatalf("exposition missing %q", wantSeries)
		}
	}
	// N clients cost one encode: each (pane, format) serialized once per
	// round at most, every additional client served from the cache.
	if f.o.StreamCacheHits.Value() == 0 {
		t.Fatal("fan-out never hit the serialization cache")
	}
	if hits, misses := f.o.StreamCacheHits.Value(), f.o.StreamCacheMisses.Value(); hits < misses {
		t.Fatalf("cache hits %d < misses %d during fan-out; frames are being re-encoded per client", hits, misses)
	}
	if got := f.o.StreamRounds.Value(); got < rounds {
		t.Fatalf("fan-out rounds %d, want >= %d", got, rounds)
	}
}

// Every stop event snapshots the registry into the history ring — stream
// health is queryable after the fact without a -metrics-interval timer.
func TestStreamRoundSnapshotsMetricsHistory(t *testing.T) {
	f := newStreamFixture(t, "7-1")
	before := len(f.o.History.Points())
	const rounds = 3
	for i := 0; i < rounds; i++ {
		f.step(t)
	}
	pts := f.o.History.Points()
	if len(pts) != before+rounds {
		t.Fatalf("history points %d, want %d", len(pts), before+rounds)
	}
	last := pts[len(pts)-1]
	if _, ok := last.Values["vl_stream_fanout_rounds_total"]; !ok {
		t.Fatalf("history point lacks stream gauges: %v", last.Values)
	}
}

// The fan-out rounds leave their span trees in the TraceStore under the
// reserved pane, with per-client enqueue children — the raw material for
// the vchat stream diagnosis.
func TestStreamRoundRecordsFanoutTrace(t *testing.T) {
	f := newStreamFixture(t, "7-1")
	c := dialStream(t, f.ts, "", 0)
	defer c.close()
	f.step(t)

	recs := f.o.Traces.History(-1)
	if len(recs) == 0 {
		t.Fatal("no fan-out trace recorded under the reserved pane")
	}
	var clientSpans, serializeSpans int
	recs[len(recs)-1].Trace.Walk(func(s *obs.SpanExport) {
		switch s.Name {
		case "fanout.client":
			clientSpans++
		case "fanout.serialize":
			serializeSpans++
		}
	})
	if clientSpans == 0 || serializeSpans == 0 {
		t.Fatalf("fan-out trace spans: client=%d serialize=%d, want both > 0", clientSpans, serializeSpans)
	}
}

// /debug/stream reports per-client health rows.
func TestDebugStreamSurface(t *testing.T) {
	f := newStreamFixture(t, "7-1")
	c1 := dialStream(t, f.ts, "", 0)
	defer c1.close()
	c2 := dialStream(t, f.ts, "?format=text&panes=1", 0)
	defer c2.close()
	f.step(t)

	resp, body := get(t, f.ts, "/debug/stream")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Round  uint64 `json:"round"`
		Health struct {
			QueueCap int `json:"queue_cap"`
			Clients  []struct {
				ID         int    `json:"id"`
				Format     string `json:"format"`
				Subs       []int  `json:"subs"`
				FramesSent uint64 `json:"frames_sent"`
				QueueDepth int    `json:"queue_depth"`
			} `json:"clients"`
		} `json:"health"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("bad /debug/stream JSON: %v\n%s", err, body)
	}
	if out.Round < 1 || out.Health.QueueCap == 0 || len(out.Health.Clients) != 2 {
		t.Fatalf("unexpected /debug/stream: %s", body)
	}
	var sawFiltered bool
	for _, cl := range out.Health.Clients {
		if cl.Format == "text" {
			sawFiltered = true
			if len(cl.Subs) != 1 || cl.Subs[0] != 1 {
				t.Fatalf("filtered client subs = %v, want [1]", cl.Subs)
			}
		}
	}
	if !sawFiltered {
		t.Fatalf("text client missing from health: %s", body)
	}
}

// Disconnecting clients mid-run leaks neither goroutines nor per-client
// gauge series, and the broker's client count returns to zero.
func TestStreamDisconnectCleansUp(t *testing.T) {
	f := newStreamFixture(t, "7-1")
	before := runtime.NumGoroutine()

	clients := make([]*sseClient, 8)
	for i := range clients {
		clients[i] = dialStream(t, f.ts, "", 0)
	}
	f.step(t)
	for _, c := range clients {
		c.close() // cancel mid-stream; server handler must unwind
	}

	deadline := time.Now().Add(5 * time.Second)
	for f.o.StreamClients.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%v broker clients still registered", f.o.StreamClients.Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Goroutine check before any further HTTP traffic: keep-alive
	// connections from the helper client would otherwise sit in the idle
	// pool and read as a leak.
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("goroutines grew: before=%d after=%d", before, n)
	}
	_, expo := get(t, f.ts, "/debug/metrics")
	if strings.Contains(string(expo), "vl_stream_client_lag_ms") {
		t.Fatal("per-client gauge series survived disconnect")
	}
	if !strings.Contains(string(expo), "vl_stream_clients 0") {
		t.Fatal("client gauge did not return to zero")
	}
	// A later stop event with zero clients is a no-op fan-out, not a crash.
	f.step(t)
}

// vchat answers "why is my stream laggy?" from the broker health the
// server wired into the session.
func TestVChatStreamLagAnswer(t *testing.T) {
	f := newStreamFixture(t, "7-1")
	c := dialStream(t, f.ts, "", 0)
	defer c.close()
	f.step(t)

	resp, out := post(t, f.ts, "/api/vchat", `{"message":"why is my stream laggy?"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("vchat status %d: %v", resp.StatusCode, out)
	}
	if out["kind"] != "diagnosis" {
		t.Fatalf("vchat kind %v", out["kind"])
	}
	answer, _ := out["answer"].(string)
	if !strings.Contains(answer, "stream:") || !strings.Contains(answer, "1 clients") {
		t.Fatalf("vchat stream answer: %q", answer)
	}
}

// Interactive mutations (vplot of a new figure) also reach stream clients,
// not only free-run stop events.
func TestInteractiveMutationStreams(t *testing.T) {
	f := newStreamFixture(t, "7-1")
	c := dialStream(t, f.ts, "", 0)
	defer c.close()

	if resp, out := post(t, f.ts, "/api/vplot", `{"figure":"3-6"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("vplot: %d %v", resp.StatusCode, out)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		latest, _, err := c.snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if ev, ok := latest[2]; ok && !ev.Snapshot {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("vplot mutation never reached the stream client")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
