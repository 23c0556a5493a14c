// Package server implements the visualizer front-end of the paper's §4.2 as
// an HTTP service: v-commands executed against a session arrive as POST
// requests (exactly how the paper's GDB extension talks to its TypeScript
// front-end), pane state is queryable as JSON, and a small embedded HTML
// page renders the panes for a browser. Pane/plot state can be exported and
// re-imported, covering the paper's "persisting the state of panes and
// plots for reuse across debugging sessions".
//
// The server is multi-tenant: one process hosts many sessions behind a
// core.SessionManager, each addressable under /sessions/{id}/... with the
// full single-session surface (v-commands, panes, stream, debug) re-rooted
// per session. The historical un-prefixed routes are a rewrite onto
// /sessions/default/..., the managed session named core.DefaultSession,
// so a single-session deployment never notices. The server keeps only
// HTTP: decoding, routing, status codes and SSE writing. Every request
// resolves its session through the manager, and everything that lives and
// dies with a session (its lock, stream broker and serialization cache)
// is the core.ManagedSession's.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"visualinux/internal/core"
	"visualinux/internal/vchat"
)

// Server exposes sessions over HTTP.
type Server struct {
	mux *http.ServeMux
	// mgr admits, evicts, and accounts the managed sessions; it is the
	// one registry every request resolves its session in.
	mgr *core.SessionManager

	// fleet fans ViewQL queries across the managed sessions (/fleet/query,
	// /debug/fleet, and the cross-target vchat intent).
	fleet *core.Fleet
}

// NewManaged serves the sessions of mgr. Every session mgr admits, before
// or after this call, is addressable under /sessions/{id}/ with no further
// setup. resident is unused and may be nil; the parameter stays so that
// existing callers keep compiling.
func NewManaged(mgr *core.SessionManager, resident *core.ManagedSession) *Server {
	srv := &Server{mux: http.NewServeMux(), mgr: mgr}
	srv.mux.HandleFunc("/", srv.handleIndex)
	// Legacy single-session routes: a rewrite onto /sessions/default.
	legacy := func(w http.ResponseWriter, r *http.Request) {
		srv.serveSession(core.DefaultSession, r.URL.Path, w, r)
	}
	srv.mux.HandleFunc("/stream", legacy)
	srv.mux.HandleFunc("/api/", legacy)
	srv.mux.HandleFunc("/debug/", legacy)
	// The session fabric.
	srv.mux.HandleFunc("/sessions", srv.handleSessions)
	srv.mux.HandleFunc("/sessions/", srv.handleSessionPath)
	// The fleet scope: one ViewQL query, every session.
	srv.fleet = &core.Fleet{Mgr: mgr}
	srv.mux.HandleFunc("/fleet/query", srv.handleFleetQuery)
	srv.registerDebug()
	return srv
}

// serveSession resolves session id, counting the request against its idle
// TTL, and dispatches the session-relative path to it, or answers 404.
func (s *Server) serveSession(id, path string, w http.ResponseWriter, r *http.Request) {
	ms, ok := s.mgr.Attach(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no session %q", id))
		return
	}
	s.dispatch(ms, path, w, r)
}

// dispatch routes one request for a resolved session. path is the
// session-relative route: the part after /sessions/{id}, which for a legacy
// request is r.URL.Path itself.
func (s *Server) dispatch(ms *core.ManagedSession, path string, w http.ResponseWriter, r *http.Request) {
	if s.mgr.Tenants != nil {
		s.mgr.Tenants.Requests(ms.ID).Inc()
	}
	switch {
	case path == "/stream":
		s.handleStream(ms, w, r)
	case path == "/api/vplot":
		s.handleVPlot(ms, w, r)
	case path == "/api/vctrl":
		s.handleVCtrl(ms, w, r)
	case path == "/api/vchat":
		s.handleVChat(ms, w, r)
	case path == "/api/panes":
		s.handlePanes(ms, w, r)
	case path == "/api/pane":
		s.handlePane(ms, w, r)
	case path == "/api/figures":
		s.handleFigures(ms, w, r)
	case path == "/api/session/export":
		s.handleExport(ms, w, r)
	case path == "/api/session/import":
		s.handleImport(ms, w, r)
	case path == "/round":
		s.handleRound(ms, w, r)
	case path == "/debug/metrics":
		s.handleMetrics(ms, w, r)
	case path == "/debug/metrics/history":
		s.handleMetricsHistory(ms, w, r)
	case strings.HasPrefix(path, "/debug/trace/"):
		s.handleTrace(ms, strings.TrimPrefix(path, "/debug/trace/"), w, r)
	case path == "/debug/slowlog":
		s.handleSlowLog(ms, w, r)
	case strings.HasPrefix(path, "/debug/diagnose"):
		s.handleDiagnose(ms, strings.TrimPrefix(strings.TrimPrefix(path, "/debug/diagnose"), "/"), w, r)
	case path == "/debug/stream":
		s.handleStreamDebug(ms, w, r)
	default:
		http.NotFound(w, r)
	}
}

// handleExport serializes the session's pane/plot state (paper §4.2
// persistence). Read-only: concurrent with other readers.
func (s *Server) handleExport(ms *core.ManagedSession, w http.ResponseWriter, r *http.Request) {
	ms.RLock()
	defer ms.RUnlock()
	data, err := ms.Session.Export()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// handleImport restores an exported session into a fresh one.
func (s *Server) handleImport(ms *core.ManagedSession, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ms.Lock()
	defer ms.Unlock()
	if err := ms.Session.Import(body); err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	// The restored tree restarts version/epoch numbering: cached
	// serializations and publish states from before the import could carry
	// ETags identical to the new panes' while holding the old bytes.
	ms.ClearPaneCache()
	ms.PublishLocked(nil)
	writeJSON(w, http.StatusOK, map[string]string{"status": "restored"})
}

// maxBodyBytes bounds every request body; a larger one answers 413.
const maxBodyBytes = 16 << 20

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeErr answers err as JSON with code, or with 413 when err comes from
// reading a body over maxBodyBytes.
func writeErr(w http.ResponseWriter, code int, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		code = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// vplotReq is the body of POST /api/vplot.
type vplotReq struct {
	Name    string `json:"name"`
	Program string `json:"program"` // ViewCL source; or empty with Figure set
	Figure  string `json:"figure"`  // stdlib figure ID, e.g. "7-1"
}

func (s *Server) handleVPlot(ms *core.ManagedSession, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	var req vplotReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ms.Lock()
	defer ms.Unlock()
	var err error
	var paneID int
	if req.Figure != "" {
		p, e := ms.Session.VPlotFigure(req.Figure)
		if e == nil {
			paneID = p.ID
		}
		err = e
	} else {
		p, e := ms.Session.VPlot(req.Name, req.Program)
		if e == nil {
			paneID = p.ID
		}
		err = e
	}
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	ms.PublishLocked(nil)
	writeJSON(w, http.StatusOK, map[string]any{"pane": paneID})
}

// vctrlReq is the body of POST /api/vctrl.
type vctrlReq struct {
	Command string `json:"command"`
}

func (s *Server) handleVCtrl(ms *core.ManagedSession, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	var req vctrlReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ms.Lock()
	defer ms.Unlock()
	out, err := ms.Session.VCtrl(req.Command)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	ms.PublishLocked(nil)
	writeJSON(w, http.StatusOK, map[string]string{"output": out})
}

// vchatReq is the body of POST /api/vchat.
type vchatReq struct {
	Pane    int    `json:"pane"`
	Message string `json:"message"`
}

func (s *Server) handleVChat(ms *core.ManagedSession, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	var req vchatReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Pane == 0 {
		req.Pane = 1
	}
	// Fleet questions span sessions, so they must be routed before this
	// session's write lock is taken: the fan-out takes every session's
	// read lock, this one's included.
	if intent, _ := vchat.Classify(req.Message); intent == vchat.IntentFleet {
		ans, err := s.fleet.Chat(req.Message)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"kind":    "fleet",
			"answer":  ans.Text,
			"ranking": ans.Ranking,
		})
		return
	}
	ms.Lock()
	defer ms.Unlock()
	kind, out, err := ms.Session.VChatAnswer(req.Pane, req.Message)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	ms.PublishLocked(nil)
	// Visualization requests keep the historical {"viewql": ...} shape;
	// diagnostic questions answer {"kind":"diagnosis","answer":...}.
	if kind == core.AnswerViewQL {
		writeJSON(w, http.StatusOK, map[string]string{"viewql": out})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"kind": kind, "answer": out})
}

func (s *Server) handlePanes(ms *core.ManagedSession, w http.ResponseWriter, r *http.Request) {
	ms.RLock()
	defer ms.RUnlock()
	type paneInfo struct {
		ID      int    `json:"id"`
		Kind    string `json:"kind"`
		Title   string `json:"title"`
		Boxes   int    `json:"boxes"`
		Summary string `json:"summary"`
		Version int    `json:"version"`
		Epoch   int    `json:"epoch"`
	}
	var out []paneInfo
	if ms.Session.Tree != nil {
		for _, p := range ms.Session.Tree.Panes() {
			out = append(out, paneInfo{
				ID: p.ID, Kind: p.Kind.String(), Title: p.Title,
				Boxes: len(p.Graph.Boxes), Summary: p.Graph.Summary(),
				Version: p.Version, Epoch: ms.Session.Tree.Epoch(),
			})
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handlePane(ms *core.ManagedSession, w http.ResponseWriter, r *http.Request) {
	ms.RLock()
	defer ms.RUnlock()
	var id int
	if _, err := fmt.Sscanf(r.URL.Query().Get("id"), "%d", &id); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad pane id"))
		return
	}
	if ms.Session.Tree == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no panes"))
		return
	}
	p, ok := ms.Session.Tree.Pane(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no pane %d", id))
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	// Weak validator over pane version + tree epoch: the version moves when
	// the pane's content is replaced (incremental re-extraction), the epoch
	// when shared display attributes mutate (ViewQL/expand/vchat). A client
	// revalidating an unchanged pane costs a 304, not a re-serialization.
	etag := ms.PaneETag(p, format)
	w.Header().Set("ETag", etag)
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	c, _ := ms.SerializePane(p, format)
	w.Header().Set("Content-Type", c.CType)
	_, _ = w.Write(c.Body)
}

// etagMatches reports whether an If-None-Match header value matches the
// given entity tag, using RFC 9110 §13.1.2 semantics: weak comparison
// (W/ prefixes are ignored on both sides), comma-separated candidate
// lists, and the "*" wildcard — which matches any current representation
// wherever it appears, including sloppy clients that send it inside a
// list or padded with whitespace.
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	want := strings.TrimPrefix(etag, "W/")
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "*" {
			return true
		}
		if strings.TrimPrefix(part, "W/") == want {
			return true
		}
	}
	return false
}

func (s *Server) handleFigures(ms *core.ManagedSession, w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, core.FigureIDs())
}

const indexHTML = `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>Visualinux</title>
<style>
body { font-family: monospace; margin: 1em; background: #10141a; color: #d8dee9; }
pre { background: #161b22; padding: 1em; overflow: auto; border-radius: 6px; }
input, button, textarea { font-family: monospace; background: #1f2630; color: #d8dee9; border: 1px solid #444; }
.pane { border: 1px solid #333; margin: .6em 0; padding: .4em; }
</style></head>
<body>
<h1>Visualinux</h1>
<p>vplot a figure: <input id="fig" value="7-1" size="8"><button onclick="plot()">vplot</button>
vchat (pane 1): <input id="chat" size="48" placeholder="shrink tasks that have no address space">
<button onclick="chat()">send</button></p>
<div id="panes"></div>
<script>
async function refresh() {
  const panes = await (await fetch('/api/panes')).json() || [];
  const div = document.getElementById('panes');
  div.innerHTML = '';
  for (const p of panes) {
    const txt = await (await fetch('/api/pane?id='+p.id+'&format=text')).text();
    const el = document.createElement('div');
    el.className = 'pane';
    el.innerHTML = '<b>pane '+p.id+' ('+p.kind+') '+p.title+'</b><pre></pre>';
    el.querySelector('pre').textContent = txt;
    div.appendChild(el);
  }
}
async function plot() {
  await fetch('/api/vplot', {method:'POST', body: JSON.stringify({figure: document.getElementById('fig').value})});
  refresh();
}
async function chat() {
  const r = await fetch('/api/vchat', {method:'POST', body: JSON.stringify({pane:1, message: document.getElementById('chat').value})});
  const j = await r.json();
  if (j.error) alert(j.error); else console.log(j.viewql);
  refresh();
}
refresh();
</script>
</body></html>`

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, indexHTML)
}
