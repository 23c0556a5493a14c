package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/obs"
	"visualinux/internal/server"
)

// serveDefault admits core.DefaultSession over the given figures (nil:
// every stdlib figure; empty: none) into a manager observed by o, and
// serves it.
func serveDefault(t *testing.T, o *obs.Observer, figureIDs []string) *server.Server {
	t.Helper()
	srv, _ := serveSession(t, o, figureIDs)
	return srv
}

// serveSession is serveDefault that also hands back the default session.
func serveSession(t *testing.T, o *obs.Observer, figureIDs []string) (*server.Server, *core.ManagedSession) {
	t.Helper()
	mgr := core.NewSessionManager(core.ManagerOptions{}, o)
	ms, err := mgr.Create(core.DefaultSession, core.SessionOptions{Figures: figureIDs})
	if err != nil {
		t.Fatalf("default session: %v", err)
	}
	return server.NewManaged(mgr, ms), ms
}

// newServer serves an empty default session.
func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(serveDefault(t, obs.NewObserver(), []string{}))
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func TestVPlotEndpoint(t *testing.T) {
	ts := newServer(t)
	resp, out := post(t, ts, "/api/vplot", `{"figure":"7-1"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["pane"].(float64) != 1 {
		t.Errorf("pane = %v", out["pane"])
	}

	// Pane listing and all three render formats.
	r, err := http.Get(ts.URL + "/api/panes")
	if err != nil {
		t.Fatal(err)
	}
	var panes []map[string]any
	_ = json.NewDecoder(r.Body).Decode(&panes)
	r.Body.Close()
	if len(panes) != 1 || panes[0]["kind"] != "primary" {
		t.Fatalf("panes = %v", panes)
	}
	for _, format := range []string{"json", "text", "dot"} {
		r, err := http.Get(ts.URL + "/api/pane?id=1&format=" + format)
		if err != nil || r.StatusCode != http.StatusOK {
			t.Fatalf("pane format %s: %v %v", format, err, r.Status)
		}
		r.Body.Close()
	}
}

func TestVCtrlAndVChatEndpoints(t *testing.T) {
	ts := newServer(t)
	post(t, ts, "/api/vplot", `{"figure":"3-4"}`)
	resp, out := post(t, ts, "/api/vctrl",
		`{"command":"viewql 1 a = SELECT task_struct FROM * WHERE pid == 1\nUPDATE a WITH collapsed: true"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("vctrl: %v", out)
	}
	resp, out = post(t, ts, "/api/vchat", `{"pane":1,"message":"shrink tasks that have no address space"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("vchat: %v", out)
	}
	if !strings.Contains(out["viewql"].(string), "UPDATE") {
		t.Errorf("vchat output: %v", out["viewql"])
	}
}

func TestCustomProgramEndpoint(t *testing.T) {
	ts := newServer(t)
	prog := `
define T as Box<task_struct> [ Text pid, comm ]
x = T(${&init_task})
plot @x
`
	resp, out := post(t, ts, "/api/vplot", mustJSON(map[string]string{"name": "custom", "program": prog}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("custom vplot: %v", out)
	}
}

func TestErrorResponses(t *testing.T) {
	ts := newServer(t)
	if resp, _ := post(t, ts, "/api/vplot", `{"figure":"nope"}`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad figure: %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts, "/api/vctrl", `{"command":"show 1"}`); resp.StatusCode == http.StatusOK {
		t.Errorf("vctrl before vplot should fail")
	}
	r, _ := http.Get(ts.URL + "/api/pane?id=7")
	if r.StatusCode == http.StatusOK {
		t.Errorf("missing pane should 404")
	}
	r.Body.Close()
	r, _ = http.Get(ts.URL + "/")
	if r.StatusCode != http.StatusOK {
		t.Errorf("index: %d", r.StatusCode)
	}
	r.Body.Close()
}

// TestRequestBodyLimit: every POST body is bounded at 16 MB by the router,
// not per handler. One byte over answers 413 on a v-command, a tenant's
// v-command and session create, and the server keeps serving afterwards.
func TestRequestBodyLimit(t *testing.T) {
	ts := newServer(t)
	if resp, out := post(t, ts, "/sessions", `{"id":"a","procs":1,"figures":["7-1"]}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %v", resp.StatusCode, out)
	}
	const limit = 16 << 20
	prefix := `{"pad":"`
	over := prefix + strings.Repeat("x", limit+1-len(prefix)-len(`"}`)) + `"}`
	for _, path := range []string{"/api/vplot", "/sessions/a/api/vctrl", "/sessions"} {
		if resp, out := post(t, ts, path, over); resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with a %d-byte body: status %d %v, want 413", path, len(over), resp.StatusCode, out)
		}
		if resp, out := post(t, ts, "/api/vplot", `{"figure":"7-1"}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("vplot after an oversized %s: status %d %v", path, resp.StatusCode, out)
		}
	}
}

func mustJSON(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func TestSessionExportImportEndpoints(t *testing.T) {
	ts := newServer(t)
	post(t, ts, "/api/vplot", `{"figure":"3-4"}`)
	post(t, ts, "/api/vctrl",
		`{"command":"viewql 1 a = SELECT task_struct FROM * WHERE pid == 1\nUPDATE a WITH collapsed: true"}`)
	r, err := http.Get(ts.URL + "/api/session/export")
	if err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("export: %v %v", err, r.Status)
	}
	data := new(strings.Builder)
	if _, err := io.Copy(data, r.Body); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if !strings.Contains(data.String(), "collapsed") {
		t.Fatalf("export misses attrs")
	}
	// Import into a fresh server over a fresh kernel.
	ts2 := newServer(t)
	resp, out := post(t, ts2, "/api/session/import", data.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("import: %v", out)
	}
	r2, _ := http.Get(ts2.URL + "/api/panes")
	var panes []map[string]any
	_ = json.NewDecoder(r2.Body).Decode(&panes)
	r2.Body.Close()
	if len(panes) != 1 {
		t.Fatalf("restored panes = %d", len(panes))
	}
}
