package server

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/vchat"
)

// registerDebug mounts the process-wide observability surfaces. The
// session-scoped /debug routes (metrics, traces, slow log, diagnose,
// stream health) go through dispatch — un-prefixed for the default
// session, /sessions/{id}/debug/... per tenant — and read the session's
// observer, which every managed session has. The pprof endpoints and the
// fleet-level /debug/sessions are the exception: they describe the
// process, not one session, and are always mounted at the top level — the
// server runs its own mux, so the net/http/pprof side effects on
// http.DefaultServeMux never apply and the handlers are wired explicitly.
func (s *Server) registerDebug() {
	s.mux.HandleFunc("/debug/sessions", s.handleSessionsDebug)
	s.mux.HandleFunc("/debug/fleet", s.handleFleetDebug)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// sessionHealth is one tenant's row in GET /debug/sessions.
type sessionHealth struct {
	core.SessionInfo
	Panes         int    `json:"panes"`
	StreamClients int    `json:"stream_clients"`
	StreamRound   uint64 `json:"stream_round"`
	Default       bool   `json:"default,omitempty"`
}

// handleSessionsDebug serves GET /debug/sessions: every resident session's
// manager-level accounting (memory, rounds, idle time) joined with its
// serving-level state (pane count, stream clients, fan-out round).
func (s *Server) handleSessionsDebug(w http.ResponseWriter, r *http.Request) {
	infos := s.mgr.List()
	rows := make([]sessionHealth, 0, len(infos))
	for _, info := range infos {
		row := sessionHealth{SessionInfo: info}
		// Lookup, not Attach: reporting on a session does not keep it alive.
		if ms, ok := s.mgr.Lookup(info.ID); ok {
			ms.RLock()
			if ms.Session.Tree != nil {
				row.Panes = len(ms.Session.Tree.Panes())
			}
			row.StreamRound = ms.FanoutRound()
			ms.RUnlock()
			row.StreamClients = ms.Broker.ClientCount()
		}
		row.Default = info.ID == core.DefaultSession
		rows = append(rows, row)
	}
	st := kernelsim.SharedStore().Stats()
	built, forks := kernelsim.TemplateStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"sessions":        rows,
		"resident":        s.mgr.Len(),
		"total_mem_bytes": s.mgr.TotalMem(),
		"store": map[string]any{
			"unique_pages":    st.UniquePages,
			"unique_bytes":    st.UniqueBytes,
			"shared_bytes":    st.SharedBytes,
			"total_refs":      st.TotalRefs,
			"dedup_hits":      st.DedupHits,
			"cow_breaks":      st.CowBreaks,
			"templates_built": built,
			"template_forks":  forks,
		},
	})
}

// handleDiagnose answers "why is this pane slow?" over HTTP from the
// pane's retained span trees — the machine-readable twin of the vchat
// diagnosis path. GET /debug/diagnose/3 — pane 3; GET
// /debug/diagnose/slowest — whichever pane's latest round was slowest.
func (s *Server) handleDiagnose(ms *core.ManagedSession, rest string, w http.ResponseWriter, r *http.Request) {
	ms.RLock()
	defer ms.RUnlock()
	var d *vchat.Diagnosis
	var err error
	if rest == "slowest" || rest == "" {
		d, err = ms.Session.DiagnoseSlowest()
	} else {
		id, convErr := strconv.Atoi(rest)
		if convErr != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad pane id %q", rest))
			return
		}
		d, err = ms.Session.Diagnose(id)
	}
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"pane":      d.Pane,
		"diagnosis": d,
		"rendered":  d.Render(),
	})
}

// handleMetricsHistory returns the bounded ring of periodic registry
// snapshots as JSON, oldest first — the push counterpart of /debug/metrics,
// so a UI can draw sparklines without running its own scraper. The ring
// fills via Observer.StartMetricsHistory (vlserver's -metrics-interval).
func (s *Server) handleMetricsHistory(ms *core.ManagedSession, w http.ResponseWriter, r *http.Request) {
	o := ms.Session.Obs
	writeJSON(w, http.StatusOK, map[string]any{
		"cap":    o.History.Cap(),
		"points": o.History.Points(),
	})
}

// handleMetrics writes the session's registry in Prometheus text
// exposition format: snapshot hit ratio, link transactions and bytes,
// per-stage and per-figure latency histograms.
func (s *Server) handleMetrics(ms *core.ManagedSession, w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	ms.Session.Obs.Registry.WritePrometheus(w)
}

// handleTrace returns the span tree of a pane's last extraction as JSON.
// GET /debug/trace/3 — pane 3; GET /debug/trace/last — most recent.
func (s *Server) handleTrace(ms *core.ManagedSession, rest string, w http.ResponseWriter, r *http.Request) {
	ms.RLock()
	defer ms.RUnlock()
	traces := ms.Session.Obs.Traces
	if rest == "last" || rest == "" {
		rec, ok := traces.Latest()
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no extractions traced yet"))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"pane": rec.Pane, "trace": rec.Trace})
		return
	}
	id, err := strconv.Atoi(rest)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad pane id %q", rest))
		return
	}
	rec, ok := traces.Last(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no trace for pane %d", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"pane": id, "trace": rec.Trace})
}

// slowLogRows caps /debug/slowlog at the slowest rounds of this many panes.
const slowLogRows = 16

// handleSlowLog returns each pane's slowest extraction (label, duration,
// trace), slowest first.
func (s *Server) handleSlowLog(ms *core.ManagedSession, w http.ResponseWriter, r *http.Request) {
	rows := []obs.SlowEntry{}
	for _, rec := range ms.Session.Obs.Traces.Slowest(slowLogRows) {
		rows = append(rows, obs.SlowEntry{
			Label: fmt.Sprintf("pane %d (%s)", rec.Pane, rec.Figure),
			DurMS: rec.DurMS, Seq: rec.Seq, Trace: rec.Trace,
		})
	}
	writeJSON(w, http.StatusOK, rows)
}
