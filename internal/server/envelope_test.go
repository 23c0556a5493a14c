package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/obs"
	"visualinux/internal/render"
	"visualinux/internal/stream"
)

// serveDefault admits core.DefaultSession over the given figures (nil:
// every stdlib figure; empty: none) into a fresh observed manager and
// serves it.
func serveDefault(t *testing.T, figureIDs []string) *Server {
	t.Helper()
	mgr := core.NewSessionManager(core.ManagerOptions{}, obs.NewObserver())
	ms, err := mgr.Create(core.DefaultSession, core.SessionOptions{Figures: figureIDs})
	if err != nil {
		t.Fatalf("default session: %v", err)
	}
	return NewManaged(mgr, ms)
}

// defaultTenant is the server's default session.
func defaultTenant(srv *Server) *core.ManagedSession {
	ms, _ := srv.mgr.Lookup(core.DefaultSession)
	return ms
}

// liveServer serves an observed default session over the given figures
// (all stdlib figures when none are named); step runs one stop event that
// changes what the CFS runqueue (7-1) shows: it spawns a runnable task
// before the round, because a round that re-extracts the same content
// publishes nothing.
func liveServer(t *testing.T, figureIDs ...string) (srv *Server, step func()) {
	t.Helper()
	srv = serveDefault(t, figureIDs)
	pid := 20000
	return srv, func() {
		t.Helper()
		pid++
		if _, err := defaultTenant(srv).Kernel.SpawnTask(pid, "steptest", 1); err != nil {
			t.Fatalf("spawn: %v", err)
		}
		if err := srv.StreamRound(core.DefaultSession); err != nil {
			t.Fatalf("stream round: %v", err)
		}
	}
}

// wantEvent is the reference SSE pane event: json.Marshal of the
// streamEvent envelope, framed by the event and id lines.
func wantEvent(t *testing.T, f *stream.Frame) []byte {
	t.Helper()
	data, err := json.Marshal(streamEvent{
		Seq: f.Seq, Round: f.Round, Pane: f.Pane,
		Version: f.Version, Epoch: f.Epoch, ETag: f.ETag,
		Format: f.Format, Snapshot: f.Snapshot, Coalesced: f.Coalesced,
		Body: string(f.Body),
	})
	if err != nil {
		t.Fatal(err)
	}
	return []byte(fmt.Sprintf("event: pane\nid: %d\ndata: %s\n\n", f.Seq, data))
}

// Each pane JSON encode stays within a small allocation budget once the
// pane has a cached body to presize from (reflection-based encoding with
// indentation took about 190 per pane).
func TestPaneSerializeAllocs(t *testing.T) {
	srv, _ := liveServer(t)
	tn := defaultTenant(srv)
	ps := tn.Session.Tree.Panes()
	for _, p := range ps {
		tn.SerializePane(p, "json")
	}
	allocs := testing.AllocsPerRun(20, func() {
		tn.Session.Tree.BumpEpoch() // every pane's ETag moves: all misses
		for _, p := range ps {
			if _, hit := tn.SerializePane(p, "json"); hit {
				t.Fatalf("pane %d: cache hit after an epoch bump", p.ID)
			}
		}
	})
	perPane := allocs / float64(len(ps))
	const ceiling = 10
	if perPane > ceiling {
		t.Errorf("pane JSON serialize: %.1f allocs per pane over %d panes, want <= %d", perPane, len(ps), ceiling)
	}
	t.Logf("pane JSON serialize: %.1f allocs per pane over %d panes", perPane, len(ps))
}

// appendStreamEvent writes exactly what json.Marshal of the envelope wrote,
// for every flag combination and for bodies that exercise every escape.
func TestStreamEventMatchesMarshal(t *testing.T) {
	srv, _ := liveServer(t, "7-1")
	p, _ := defaultTenant(srv).Session.Tree.Pane(1)
	bodies := map[string]string{"escapes": "\x00\x1f\b\f\n\r\t\"\\<&>\u2028\u2029\xff\xc0 é日本\U0001F600", "empty": ""}
	for _, format := range []string{"json", "text", "dot"} {
		c, _ := defaultTenant(srv).SerializePane(p, format)
		bodies[format] = string(c.Body)
	}
	for name, body := range bodies {
		for _, flags := range []struct{ snapshot, coalesced bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
			f := &stream.Frame{
				Seq: 1<<64 - 1, Round: 42, Pane: 3, Version: 1 << 40, Epoch: 0,
				ETag: `W/"p3.v1099511627776.e0.json"`, Format: name,
				Snapshot: flags.snapshot, Coalesced: flags.coalesced,
				Body: []byte(body), Quoted: render.AppendJSONString(nil, []byte(body)),
			}
			if got, want := appendStreamEvent(nil, f), wantEvent(t, f); !bytes.Equal(got, want) {
				t.Errorf("%s body, %+v:\n got %q\nwant %q", name, flags, got, want)
			}
		}
	}
}

// Snapshot, delta and coalesced frames in every format carry the envelope
// json.Marshal would have built, and the stream clients of one format share
// a single quoted body per (pane, version, epoch, format), snapshot frames
// included: a body is quoted once, not once per client.
func TestStreamEnvelopeQuotedOnce(t *testing.T) {
	srv, step := liveServer(t, "7-1", "3-6")
	tn := defaultTenant(srv)
	subscribe := func(format string) *stream.Client {
		tn.RLock()
		defer tn.RUnlock()
		c := tn.Broker.Subscribe(format, nil)
		tn.Broker.SnapshotTo(c, tn.SnapshotFrames(c))
		return c
	}
	fast := []*stream.Client{subscribe("json"), subscribe("json"), subscribe("text"), subscribe("dot")}
	slow := subscribe("json") // drained only at the end: its FIFO overflows and frames coalesce
	drained, cancel := context.WithCancel(context.Background())
	cancel() // Next returns what is deliverable, then stops

	type key struct {
		pane, version, epoch int
		format               string
	}
	quoted := map[key]*byte{}
	kinds := map[string]int{}
	check := func(c *stream.Client) {
		for {
			f, ok := c.Next(drained)
			if !ok {
				return
			}
			if got, want := appendStreamEvent(nil, f), wantEvent(t, f); !bytes.Equal(got, want) {
				t.Fatalf("client %d frame %d (%s): envelope differs from json.Marshal\n got %.200q\nwant %.200q",
					c.ID, f.Seq, f.Format, got, want)
			}
			k := key{f.Pane, f.Version, f.Epoch, f.Format}
			if q, seen := quoted[k]; !seen {
				quoted[k] = &f.Quoted[0]
			} else if q != &f.Quoted[0] {
				t.Fatalf("pane %d v%d e%d %s quoted more than once", f.Pane, f.Version, f.Epoch, f.Format)
			}
			switch {
			case f.Snapshot:
				kinds["snapshot "+f.Format]++
			case f.Coalesced:
				kinds["coalesced "+f.Format]++
			default:
				kinds["delta "+f.Format]++
			}
		}
	}
	for round := 0; round < 3*stream.DefaultQueueCap; round++ {
		for _, c := range fast {
			check(c)
		}
		step()
	}
	for _, c := range append(fast, slow) {
		check(c)
		tn.Broker.Unsubscribe(c)
	}
	t.Logf("frames checked: %v", kinds)
	for _, want := range []string{"snapshot json", "snapshot text", "snapshot dot",
		"delta json", "delta text", "delta dot", "coalesced json"} {
		if kinds[want] == 0 {
			t.Errorf("no %s frame checked (saw %v)", want, kinds)
		}
	}
}

// On the wire, GET /stream writes each pane event exactly as json.Marshal
// of the envelope would: the event line, the id line, the data line and the
// blank line, nothing else.
func TestStreamWireEnvelope(t *testing.T) {
	srv, _ := liveServer(t, "7-1", "3-6")
	ts := httptest.NewServer(srv)
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// An epoch bump republishes every pane: each round is one delta per pane.
	bump := func() {
		tn := defaultTenant(srv)
		if err := tn.StopEvent(func() error { tn.Session.Tree.BumpEpoch(); return nil }); err != nil {
			t.Fatal(err)
		}
	}

	for _, format := range []string{"json", "text", "dot"} {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/stream?format="+format, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		r := bufio.NewReader(resp.Body)
		readEvent := func() string {
			t.Helper()
			var ev strings.Builder
			for {
				line, err := r.ReadString('\n')
				if err != nil {
					t.Fatalf("%s stream: %v", format, err)
				}
				ev.WriteString(line)
				if line == "\n" {
					return ev.String()
				}
			}
		}
		if hello := readEvent(); !strings.HasPrefix(hello, "event: hello\n") {
			t.Fatalf("%s stream opened with %q", format, hello)
		}
		var snapshots, deltas int
		for snapshots < 2 || deltas < 2 {
			ev := readEvent()
			_, payload, ok := strings.Cut(ev, "\ndata: ")
			if !ok {
				t.Fatalf("%s stream: event without data: %.200q", format, ev)
			}
			var se streamEvent
			if err := json.Unmarshal([]byte(strings.TrimSuffix(payload, "\n\n")), &se); err != nil {
				t.Fatalf("%s stream: bad payload: %v", format, err)
			}
			want := wantEvent(t, &stream.Frame{
				Seq: se.Seq, Round: se.Round, Pane: se.Pane, Version: se.Version, Epoch: se.Epoch,
				ETag: se.ETag, Format: se.Format, Snapshot: se.Snapshot, Coalesced: se.Coalesced,
				Body: []byte(se.Body),
			})
			if ev != string(want) || se.Format != format {
				t.Fatalf("%s stream: event on the wire differs from json.Marshal\n got %.200q\nwant %.200q", format, ev, want)
			}
			if se.Snapshot {
				if snapshots++; snapshots == 2 {
					bump()
				}
			} else {
				deltas++
			}
		}
	}
}
