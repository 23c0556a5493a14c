package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"visualinux/internal/stream"
)

// A stop event whose re-extracted panes all come out identical publishes
// nothing and leaves every ETag valid, so a conditional GET answers 304; a
// stop event that changes one pane pushes exactly that pane.
func TestUnchangedRoundPublishesNothing(t *testing.T) {
	srv := serveDefault(t, []string{"3-6", "7-1"})
	tn := defaultTenant(srv)
	k, x, o := tn.Kernel, tn.Extractor, tn.Obs
	ts := httptest.NewServer(srv)
	defer ts.Close()

	tn.RLock()
	c := tn.Broker.Subscribe("json", nil)
	tn.Broker.SnapshotTo(c, tn.SnapshotFrames(c))
	tn.RUnlock()
	defer tn.Broker.Unsubscribe(c)
	drained, cancel := context.WithCancel(context.Background())
	cancel() // Next returns what is deliverable, then stops
	drain := func() []*stream.Frame {
		var out []*stream.Frame
		for {
			f, ok := c.Next(drained)
			if !ok {
				return out
			}
			out = append(out, f)
		}
	}
	for _, f := range drain() {
		if !f.Snapshot {
			t.Fatalf("frame for pane %d before any round is not the catch-up snapshot", f.Pane)
		}
	}
	round := func(mutate func()) {
		t.Helper()
		err := tn.StopEvent(func() error {
			mutate()
			x.Advance()
			_, err := tn.Round()
			return err
		})
		if err != nil {
			t.Fatalf("round: %v", err)
		}
	}

	getPane := func(pane int, inm string) (status int, etag string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/api/pane?id="+strconv.Itoa(pane), nil)
		if err != nil {
			t.Fatal(err)
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("ETag")
	}
	var etags [3]string
	for pane := 1; pane <= 2; pane++ {
		var status int
		if status, etags[pane] = getPane(pane, ""); status != http.StatusOK {
			t.Fatalf("GET pane %d: %d", pane, status)
		}
	}
	// A byte past the NUL of init's comm is read by the PID table (pane 1),
	// which reads the name whole, but not shown: it re-extracts to the same
	// graph.
	unchanged := o.FigureUnchanged.Value()
	round(func() { k.Mem.Write(k.ByPID[1].FieldAddr("comm")+15, []byte{'x'}) })
	if o.FigureUnchanged.Value() == unchanged {
		t.Fatal("the comm scribble re-extracted no figure to an unchanged graph")
	}
	if frames := drain(); len(frames) != 0 {
		t.Fatalf("unchanged round published %d frames", len(frames))
	}
	for pane := 1; pane <= 2; pane++ {
		if status, _ := getPane(pane, etags[pane]); status != http.StatusNotModified {
			t.Fatalf("pane %d: conditional GET after an unchanged round: %d, want 304", pane, status)
		}
	}

	// Renaming a task changes a row of the PID table and nothing the
	// runqueue shows.
	round(func() { k.ByPID[1].SetStr("comm", "renamed") })
	frames := drain()
	if len(frames) != 1 || frames[0].Pane != 1 {
		t.Fatalf("rename round published %d frames (%v), want one for pane 1", len(frames), frames)
	}
}
