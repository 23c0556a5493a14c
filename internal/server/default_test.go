package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/vclstdlib"
)

// snapshotEvents reads the catch-up pane events a fresh /stream client at
// path receives for n panes, with the broker-wide sequence number zeroed.
func snapshotEvents(t *testing.T, ts *httptest.Server, path string, n int) []streamEvent {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []streamEvent
	r := bufio.NewReader(resp.Body)
	for len(out) < n {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("%s after %d snapshot frames: %v", path, len(out), err)
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok || strings.HasPrefix(data, `{"client"`) {
			continue
		}
		var ev streamEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatal(err)
		}
		ev.Seq = 0
		out = append(out, ev)
	}
	return out
}

// TestLegacyRoutesSurviveIdleSweep: on a server shaped like vlserver's
// -core mode (the default session a post-mortem dump) with an idle TTL, an
// idle sweep evicts an idle sibling but not the default, and afterwards
// the legacy routes still answer byte-identically to /sessions/default/
// for panes, pane JSON, text and DOT (ETag and 304 included) and /stream
// snapshot frames.
func TestLegacyRoutesSurviveIdleSweep(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	mgr := core.NewSessionManager(core.ManagerOptions{IdleTTL: time.Minute, Now: clock}, obs.NewObserver())
	img, err := os.ReadFile(dumpToFile(t, t.TempDir(), "vmcore", kernelsim.Options{Processes: 2}))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := mgr.Create(core.DefaultSession, core.SessionOptions{
		Source: core.SourceCore, CoreImage: img, Figures: []string{"7-1", "3-6"},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewManaged(mgr, ms)
	if code, body := do(srv, "POST", "/sessions", `{"id":"idle","procs":1,"figures":["7-1"]}`); code != 201 {
		t.Fatalf("create sibling: %d %s", code, body)
	}
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	if ids := mgr.SweepIdle(); len(ids) != 1 || ids[0] != "idle" {
		t.Fatalf("idle sweep evicted %v, want [idle]", ids)
	}

	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, path := range []string{
		"/api/panes", "/api/pane?id=1", "/api/pane?id=2&format=text", "/api/pane?id=1&format=dot",
	} {
		var etags [2]string
		var bodies [2][]byte
		for i, p := range []string{path, "/sessions/default" + path} {
			resp, err := http.Get(ts.URL + p)
			if err != nil {
				t.Fatal(err)
			}
			bodies[i], _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s after the sweep: %d %s", p, resp.StatusCode, bodies[i])
			}
			etags[i] = resp.Header.Get("ETag")
		}
		if string(bodies[0]) != string(bodies[1]) || etags[0] != etags[1] {
			t.Fatalf("%s: legacy and /sessions/default differ (ETags %q, %q)", path, etags[0], etags[1])
		}
		if etags[0] == "" {
			continue
		}
		for _, p := range []string{path, "/sessions/default" + path} {
			req, _ := http.NewRequest(http.MethodGet, ts.URL+p, nil)
			req.Header.Set("If-None-Match", etags[0])
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotModified {
				t.Fatalf("%s revalidation: %d, want 304", p, resp.StatusCode)
			}
		}
	}
	legacy := snapshotEvents(t, ts, "/stream?format=text", 2)
	prefixed := snapshotEvents(t, ts, "/sessions/default/stream?format=text", 2)
	if fmt.Sprint(legacy) != fmt.Sprint(prefixed) {
		t.Fatalf("/stream snapshot frames differ from /sessions/default/stream:\n%v\n%v", legacy, prefixed)
	}
}

// TestCreateRejectsNegativeShape: a negative kernel-shape field answers
// 400 instead of panicking the handler or building a nonsense kernel, and
// the server keeps admitting well-formed sessions.
func TestCreateRejectsNegativeShape(t *testing.T) {
	srv := NewManaged(core.NewSessionManager(core.ManagerOptions{}, obs.NewObserver()), nil)
	for _, field := range []string{"procs", "threads_per_proc", "churn", "runqueue_skew", "zombie_tasks", "pipe_burst"} {
		code, body := do(srv, "POST", "/sessions", fmt.Sprintf(`{"id":"a","%s":-1}`, field))
		if code != http.StatusBadRequest {
			t.Fatalf("%s: -1: %d %s, want 400", field, code, body)
		}
	}
	if code, body := do(srv, "POST", "/sessions", `{"id":"a","procs":1,"figures":["7-1"]}`); code != http.StatusCreated {
		t.Fatalf("create after rejections: %d %s", code, body)
	}
	if code, _ := do(srv, "POST", "/sessions", `{"id":"default","procs":1}`); code != http.StatusConflict {
		t.Fatalf("client-created default: %d, want 409", code)
	}
}

// TestEmptySessionImport: "figures": [] admits a session with no panes,
// which takes another tenant's export; omitting figures extracts them all.
func TestEmptySessionImport(t *testing.T) {
	srv := NewManaged(core.NewSessionManager(core.ManagerOptions{}, obs.NewObserver()), nil)
	if code, body := do(srv, "POST", "/sessions", `{"id":"src","procs":1,"figures":["3-4"]}`); code != 201 {
		t.Fatalf("create src: %d %s", code, body)
	}
	if code, body := do(srv, "POST", "/sessions/src/api/vctrl",
		`{"command":"viewql 1 a = SELECT task_struct FROM * WHERE pid == 1\nUPDATE a WITH collapsed: true"}`); code != 200 {
		t.Fatalf("vctrl: %d %s", code, body)
	}
	_, export := do(srv, "GET", "/sessions/src/api/session/export", "")

	code, body := do(srv, "POST", "/sessions", `{"id":"r","figures":[]}`)
	var created struct {
		Panes int `json:"panes"`
	}
	if err := json.Unmarshal([]byte(body), &created); err != nil || code != 201 || created.Panes != 0 {
		t.Fatalf(`create with "figures": []: %d %s, want 201 with no panes`, code, body)
	}
	if code, body := do(srv, "POST", "/sessions/r/api/session/import", export); code != 200 {
		t.Fatalf("import into r: %d %s", code, body)
	}
	if _, body := do(srv, "GET", "/sessions/r/api/panes", ""); !strings.Contains(body, "3-4") {
		t.Fatalf("imported panes: %s", body)
	}

	_, body = do(srv, "POST", "/sessions", `{"id":"all","procs":1}`)
	if err := json.Unmarshal([]byte(body), &created); err != nil || created.Panes != len(vclstdlib.Figures()) {
		t.Fatalf("create without figures: %s, want all %d figures", body, len(vclstdlib.Figures()))
	}
}

// TestFlatExpressionRejected: a 3 MB vplot whose ${...} is a flat 1.5M-term
// sum used to overflow the stack in evaluation and end the process; it now
// answers 422 and the next request is served.
func TestFlatExpressionRejected(t *testing.T) {
	srv := serveDefault(t, []string{})
	prog := "define T as Box<task_struct> [ Text pid ]\nx = T(${&init_task + 0*(" +
		strings.Repeat("1+", 1500000) + "1)})\nplot @x\n"
	body, _ := json.Marshal(vplotReq{Name: "flat", Program: prog})
	if code, resp := do(srv, "POST", "/api/vplot", string(body)); code != http.StatusUnprocessableEntity {
		t.Fatalf("flat %d KB vplot: %d %.200s, want 422", len(body)>>10, code, resp)
	}
	if code, resp := do(srv, "POST", "/api/vplot", `{"figure":"7-1"}`); code != http.StatusOK {
		t.Fatalf("vplot after the flat one: %d %s", code, resp)
	}
}
