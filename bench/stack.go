package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"visualinux/internal/core"
	"visualinux/internal/coredump"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/server"
)

// stack is the real serving stack — session manager plus HTTP server —
// listening on a loopback port in this process.
type stack struct {
	mgr  *core.SessionManager
	mobs *obs.Observer // the manager's observer (per-session round histograms)
	base string        // http://127.0.0.1:port
	hs   *http.Server
	done chan struct{} // closed when Serve returns
}

func startStack(tc *tracing, maxSessions int) (*stack, error) {
	mobs := obs.NewObserver()
	mgr := core.NewSessionManager(core.ManagerOptions{MaxSessions: maxSessions}, mobs)
	srv := server.NewManaged(mgr, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &stack{
		mgr:  mgr,
		mobs: mobs,
		base: "http://" + ln.Addr().String(),
		hs:   &http.Server{Handler: timedHandler{h: srv, tc: tc}},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close shuts the listener and every connection, streams included, and
// waits for the accept loop to end.
func (s *stack) close() {
	_ = s.hs.Close()
	<-s.done
}

// timedHandler charges the server's ServeHTTP time to the handler clock.
// Streams are excluded: they stay open for the whole run.
type timedHandler struct {
	h  http.Handler
	tc *tracing
}

func (t timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !t.tc.on.Load() || strings.HasSuffix(r.URL.Path, "/stream") {
		t.h.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	t.h.ServeHTTP(w, r)
	t.tc.charge(clkHandler, time.Since(t0))
}

// sessionCounters adds the layer counters the observers of the given
// managed sessions keep to c. Managed sessions are always observed.
func (s *stack) sessionCounters(c counters, ids []string) {
	for _, id := range ids {
		ms, ok := s.mgr.Attach(id)
		if !ok {
			continue
		}
		o := ms.Obs
		c["figure_reuses"] += float64(o.FigureReuses.Value())
		c["figures"] += float64(o.FigureReuses.Value() + o.Extractions.Value())
		c["box_reuses"] += float64(o.BoxReuses.Value())
		c["box_builds"] += float64(o.BoxBuilds.Value())
		c["snap_hits"] += float64(o.SnapHits.Value())
		c["snap_misses"] += float64(o.SnapMisses.Value())
		c["revalidations"] += float64(o.SnapRevalidations.Value())
		c["promotions"] += float64(o.SnapPromotions.Value())
		c["stale_refetches"] += float64(o.SnapStaleRefetches.Value())
		c["zero_copy"] += float64(o.SnapZeroCopyFills.Value())
		c["stops"] += float64(o.SnapAdvances.Value())
		c["target_reads"] += float64(o.LinkReads.Value())
		c["target_bytes"] += float64(o.LinkBytes.Value())
		vals := o.Registry.Values()
		c["render_ms"] += vals[`vl_stage_duration_ms{stage="render"}_sum`]
		c["extract_ms"] += vals[`vl_stage_duration_ms{stage="extract"}_sum`]
	}
}

// roundCounters adds the manager's round time, summed over every session
// it ever held, to c.
func (s *stack) roundCounters(c counters) {
	for name, v := range s.mobs.Registry.Values() {
		if strings.HasPrefix(name, "vl_session_round_ms{") && strings.HasSuffix(name, "_sum") {
			c["round_ms"] += v
		}
	}
}

// client is one HTTP/1.1 connection to the stack.
type client struct {
	base string
	hc   *http.Client
	tc   *tracing
}

func newClient(base string, tc *tracing) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr}, tc: tc}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one answered request.
type reply struct {
	code int
	etag string
	body []byte
}

// do sends one request and reads the whole answer. inm, when set, is sent
// as If-None-Match. The round trip is a child span of parent.
func (c *client) do(parent *obs.Span, method, path string, body []byte, inm string) (reply, error) {
	var rep reply
	err := c.tc.timed(parent, method+" "+routeOf(path), clkHTTP, func() error {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, c.base+path, rd)
		if err != nil {
			return err
		}
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		rep.code = resp.StatusCode
		rep.etag = resp.Header.Get("ETag")
		rep.body, err = io.ReadAll(resp.Body)
		return err
	})
	return rep, err
}

// expect sends a request and fails unless the status is want.
func (c *client) expect(parent *obs.Span, want int, method, path string, body []byte) (reply, error) {
	rep, err := c.do(parent, method, path, body, "")
	if err != nil {
		return rep, err
	}
	if rep.code != want {
		return rep, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, rep.code, want, bytes.TrimSpace(rep.body))
	}
	return rep, nil
}

// postJSON sends v as a JSON body and fails unless the status is want.
func (c *client) postJSON(parent *obs.Span, want int, path string, v any) (reply, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return reply{}, err
	}
	return c.expect(parent, want, http.MethodPost, path, body)
}

// routeOf strips the session prefix and query so span names group by route.
func routeOf(path string) string {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	if rest, ok := strings.CutPrefix(path, "/sessions/"); ok {
		if _, sub, ok := strings.Cut(rest, "/"); ok {
			return "/sessions/{id}/" + sub
		}
		return "/sessions/{id}"
	}
	return path
}

// paneInfo is one row of GET /api/panes.
type paneInfo struct {
	ID      int    `json:"id"`
	Title   string `json:"title"`
	Boxes   int    `json:"boxes"`
	Version int    `json:"version"`
	Epoch   int    `json:"epoch"`
}

func (c *client) panes(parent *obs.Span, session string) ([]paneInfo, error) {
	rep, err := c.expect(parent, http.StatusOK, http.MethodGet, "/sessions/"+session+"/api/panes", nil)
	if err != nil {
		return nil, err
	}
	var out []paneInfo
	if err := json.Unmarshal(rep.body, &out); err != nil {
		return nil, mismatch("pane listing: %v", err)
	}
	return out, nil
}

// paneJSON is the part of a pane's JSON body the checks read.
type paneJSON struct {
	Boxes []struct {
		ID    string            `json:"id"`
		Type  string            `json:"type"`
		Addr  string            `json:"addr"`
		Attrs map[string]string `json:"attrs"`
	} `json:"boxes"`
}

// corePath is the path of the run's core dump called name.
func corePath(e *env, name string) string {
	return filepath.Join(e.dir, name+".vlcore")
}

// writeCore builds a kernel for opts and dumps it to path.
func writeCore(path string, opts kernelsim.Options) error {
	k := kernelsim.Build(opts)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := coredump.Dump(k.Target(), f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
