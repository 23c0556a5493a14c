package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"visualinux/internal/obs"
)

// step_look is the interactive stop → look loop of a visual debugger: one
// client steps a live session (procs 5, churn 4, all stdlib figures) and
// then looks at every pane with conditional GETs, while one SSE
// subscriber receives the pushed pane deltas. A unit is
//
//	POST /round → GET /api/panes → wait for the round's SSE frames →
//	GET /api/pane (If-None-Match) for every pane, in seeded order and format
//
// It loads core's incremental rounds, target revalidation, the ViewCL memo,
// the server's ETag and serialization cache, and the stream broker; it
// never touches admission, gdbrsp or the fleet fan-out.

const stepLookSession = "dev"

// stepLookEpisode is the number of rounds a session serves before it is
// replaced by a fresh one.
const stepLookEpisode = 64

// pushTimeout bounds the wait for a round's frames before the unit fails.
const pushTimeout = 5 * time.Second

type stepLook struct {
	st   *stack
	c    *client
	sse  *subscriber
	rng  *rand.Rand
	path string // /sessions/dev
	age  int    // rounds since the session was admitted
	// retired holds the layer counters of sessions already replaced.
	retired counters

	panes    []paneInfo
	etags    map[paneFormat]cachedETag
	rounds   int // rounds that published at least one frame
	condGets int
	notMod   int
	bytes    int
}

type paneFormat struct {
	pane   int
	format string
}

// cachedETag is the validator last served for a pane+format, with the
// pane version it was served at.
type cachedETag struct {
	etag    string
	version int
}

// newRand returns the seeded generator of one workload's input stream.
func newRand(seed uint64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

func setupStepLook(e *env) (instance, error) {
	st, err := startStack(e.tc, 8)
	if err != nil {
		return nil, err
	}
	w := &stepLook{
		st:      st,
		c:       newClient(st.base, e.tc),
		rng:     newRand(e.seed, "step_look"),
		path:    "/sessions/" + stepLookSession,
		etags:   make(map[paneFormat]cachedETag),
		retired: counters{},
	}
	if err := w.start(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// start admits the session, lists its panes and subscribes to its stream.
func (w *stepLook) start() error {
	if _, err := w.c.postJSON(nil, http.StatusCreated, "/sessions", map[string]any{
		"id": stepLookSession, "procs": 5, "churn": 4,
	}); err != nil {
		return err
	}
	var err error
	if w.panes, err = w.c.panes(nil, stepLookSession); err != nil {
		return err
	}
	if len(w.panes) == 0 {
		return fmt.Errorf("session %s has no panes", stepLookSession)
	}
	w.sse, err = subscribe(w.st.base+w.path+"/stream?format=json", len(w.panes))
	w.age = 0
	clear(w.etags)
	return err
}

// restart replaces the session with a fresh one. Every step grows the
// simulated kernel (regions, signals, tasks), so without a restart a
// unit's cost would depend on how many units ran before it — on the
// system's own speed.
// After a failed restart the next phase tries again, so a failure is
// reported as a failed unit rather than ending the run.
func (w *stepLook) restart() error {
	if w.sse != nil {
		w.st.sessionCounters(w.retired, []string{stepLookSession})
		w.retired["frames"] += float64(w.sse.frames.Load())
		w.sse.close()
		w.sse = nil
	}
	// 404: a failed restart already deleted the session.
	rep, err := w.c.do(nil, http.MethodDelete, w.path, nil, "")
	if err != nil {
		return err
	}
	if rep.code != http.StatusOK && rep.code != http.StatusNotFound {
		return fmt.Errorf("DELETE %s: status %d: %s", w.path, rep.code, bytes.TrimSpace(rep.body))
	}
	return w.start()
}

func (w *stepLook) settle() error { return w.restart() }

func (w *stepLook) drive(deadline time.Time, rec *recorder) {
	tr := rec.track("client")
	for time.Now().Before(deadline) {
		if w.age == stepLookEpisode {
			t0 := time.Now()
			if err := w.restart(); err != nil {
				rec.done(0, err)
				return
			}
			rec.pause(time.Since(t0))
		}
		w.age++
		timeUnit(tr, rec, func(sp *obs.Span) error { return w.unit(sp, rec) })
	}
}

func (w *stepLook) unit(sp *obs.Span, rec *recorder) error {
	t0 := time.Now()
	rep, err := w.c.expect(sp, http.StatusOK, http.MethodPost, w.path+"/round", nil)
	if err != nil {
		return err
	}
	if !bytes.Contains(rep.body, []byte(`"stepped"`)) {
		return mismatch("round answered %s", rep.body)
	}
	listing, err := w.c.panes(sp, stepLookSession)
	if err != nil {
		return err
	}
	if len(listing) != len(w.panes) {
		return mismatch("round changed the pane count from %d to %d", len(w.panes), len(listing))
	}
	want := make(map[int]int)
	for i, p := range listing {
		if p.Version != w.panes[i].Version {
			want[p.ID] = p.Version
		}
	}
	w.panes = listing
	if len(want) > 0 {
		wait := sp.StartChild("sse wait")
		last, err := w.sse.await(want, pushTimeout)
		wait.End()
		if err != nil {
			return err
		}
		rec.sample("push", last.Sub(t0))
		w.rounds++
	}
	for _, i := range w.rng.Perm(len(listing)) {
		format := "json"
		if w.rng.IntN(2) == 1 {
			format = "text"
		}
		if err := w.look(sp, listing[i], format); err != nil {
			return err
		}
	}
	return nil
}

// look revalidates one pane: a 304 must come back exactly when the cached
// validator is still current, and a 200 must carry the listed pane.
func (w *stepLook) look(sp *obs.Span, p paneInfo, format string) error {
	key := paneFormat{p.ID, format}
	cached, have := w.etags[key]
	path := fmt.Sprintf("%s/api/pane?id=%d&format=%s", w.path, p.ID, format)
	rep, err := w.c.do(sp, http.MethodGet, path, nil, cached.etag)
	if err != nil {
		return err
	}
	fresh := have && cached.version == p.Version
	if have {
		w.condGets++
	}
	w.bytes += len(rep.body)
	switch rep.code {
	case http.StatusNotModified:
		if !fresh {
			return mismatch("pane %d %s: 304 for a stale validator (cached v%d, now v%d)", p.ID, format, cached.version, p.Version)
		}
		w.notMod++
		return nil
	case http.StatusOK:
		if fresh {
			return mismatch("pane %d %s: 200 although validator %s is current", p.ID, format, cached.etag)
		}
		if rep.etag == "" || rep.etag == cached.etag {
			return mismatch("pane %d %s: validator %q did not change", p.ID, format, rep.etag)
		}
		if err := checkPaneBody(rep.body, format, p.Boxes); err != nil {
			return fmt.Errorf("pane %d: %w", p.ID, err)
		}
		w.etags[key] = cachedETag{etag: rep.etag, version: p.Version}
		return nil
	}
	return fmt.Errorf("GET %s: status %d: %s", path, rep.code, bytes.TrimSpace(rep.body))
}

// checkPaneBody verifies a served pane: JSON must decode to the listed
// number of boxes (at least one); text must be non-empty.
func checkPaneBody(body []byte, format string, boxes int) error {
	if format == "text" {
		if len(bytes.TrimSpace(body)) == 0 {
			return mismatch("empty text pane")
		}
		return nil
	}
	var pj paneJSON
	if err := json.Unmarshal(body, &pj); err != nil {
		return mismatch("pane JSON: %v", err)
	}
	if len(pj.Boxes) == 0 || len(pj.Boxes) != boxes {
		return mismatch("pane JSON has %d boxes, listing says %d", len(pj.Boxes), boxes)
	}
	return nil
}

func (w *stepLook) counters(c counters) {
	for k, v := range w.retired {
		c[k] += v
	}
	w.st.sessionCounters(c, []string{stepLookSession})
	w.st.roundCounters(c)
	if w.sse != nil {
		c["frames"] += float64(w.sse.frames.Load())
	}
	c["push_rounds"] = float64(w.rounds)
	c["conditional_gets"] = float64(w.condGets)
	c["not_modified"] = float64(w.notMod)
	c["resp_bytes"] = float64(w.bytes)
}

func (w *stepLook) close() {
	if w.sse != nil {
		w.sse.close()
	}
	w.c.close()
	w.st.close()
}

// subscriber is one SSE client of a session's pane stream. It keeps, per
// pane, the newest version pushed and when it arrived.
type subscriber struct {
	cancel context.CancelFunc
	done   chan struct{}
	frames atomic.Int64 // delta frames received (snapshots excluded)

	mu     sync.Mutex
	seen   map[int]arrival
	err    error
	notify chan struct{} // capacity 1: a pending wake-up for await
}

type arrival struct {
	version int
	at      time.Time
}

// subscribe opens the stream and returns once the catch-up snapshot of
// all panes has arrived.
func subscribe(url string, panes int) (*subscriber, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	resp, err := hc.Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	s := &subscriber{
		cancel: cancel,
		done:   make(chan struct{}),
		seen:   make(map[int]arrival),
		notify: make(chan struct{}, 1),
	}
	go s.read(resp)
	timer := time.NewTimer(pushTimeout)
	defer timer.Stop()
	for {
		s.mu.Lock()
		n, err := len(s.seen), s.err
		s.mu.Unlock()
		if n >= panes {
			return s, nil
		}
		if err == nil {
			select {
			case <-s.notify:
				continue
			case <-timer.C:
			}
		}
		s.close()
		return nil, fmt.Errorf("stream: catch-up snapshot has %d of %d panes: %v", n, panes, err)
	}
}

// sseEvent is the part of a pane event the subscriber reads.
type sseEvent struct {
	Pane     int  `json:"pane"`
	Version  int  `json:"version"`
	Snapshot bool `json:"snapshot"`
}

func (s *subscriber) read(resp *http.Response) {
	defer close(s.done)
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20) // one event carries a whole pane body
	var event string
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")) && event == "pane":
			at := time.Now()
			var ev sseEvent
			if err := json.Unmarshal(line[len("data: "):], &ev); err != nil {
				s.fail(fmt.Errorf("stream event: %w", err))
				return
			}
			if !ev.Snapshot {
				s.frames.Add(1)
			}
			s.mu.Lock()
			if ev.Version >= s.seen[ev.Pane].version {
				s.seen[ev.Pane] = arrival{version: ev.Version, at: at}
			}
			s.mu.Unlock()
			s.wake()
		}
	}
	s.fail(fmt.Errorf("stream ended: %v", sc.Err()))
}

func (s *subscriber) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
	s.wake()
}

func (s *subscriber) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// await blocks until every pane in want has been pushed at its wanted
// version or later, and returns when the last of those frames arrived.
func (s *subscriber) await(want map[int]int, timeout time.Duration) (time.Time, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		s.mu.Lock()
		var last time.Time
		missing := 0
		for pane, v := range want {
			a := s.seen[pane]
			if a.version < v {
				missing++
			} else if a.at.After(last) {
				last = a.at
			}
		}
		err := s.err
		s.mu.Unlock()
		if missing == 0 {
			return last, nil
		}
		if err != nil {
			return last, err
		}
		select {
		case <-s.notify:
		case <-timer.C:
			return last, mismatch("%d of %d changed panes never pushed", missing, len(want))
		}
	}
}

func (s *subscriber) close() {
	s.cancel()
	<-s.done
}
