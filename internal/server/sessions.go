package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
)

// This file is the session fabric's REST surface: tenants are created,
// listed, inspected, and deleted under /sessions, and every single-session
// route re-roots under /sessions/{id}/... — one vlserver process, many
// independent debugging sessions sharing the immutable infrastructure (the
// ctypes registry, the parsed+compiled ViewCL stdlib, the extraction pool)
// while keeping all mutable state strictly per tenant.

// sessionCreateReq is the body of POST /sessions.
type sessionCreateReq struct {
	ID string `json:"id"`
	// Source selects the attach mode: "" or "sim" builds a live simulated
	// kernel; "core" loads the dump file named by Core post-mortem.
	Source string `json:"source,omitempty"`
	// Core is a server-side path to a VLCORE01 dump file (implies
	// source "core").
	Core string `json:"core,omitempty"`
	// Workload shape of the simulated kernel backing the session.
	Procs          int `json:"procs,omitempty"`
	ThreadsPerProc int `json:"threads_per_proc,omitempty"`
	Churn          int `json:"churn,omitempty"`
	// Fleet-heterogeneity variants (see kernelsim.Options).
	RunqueueSkew int `json:"runqueue_skew,omitempty"`
	ZombieTasks  int `json:"zombie_tasks,omitempty"`
	PipeBurst    int `json:"pipe_burst,omitempty"`
	// Figures narrows the extracted stdlib figures: absent means all, an
	// explicit [] none (an empty session, e.g. an import target).
	Figures []string `json:"figures,omitempty"`
}

// handleSessions serves the collection: POST creates, GET lists.
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.mgr.List())
	case http.MethodPost:
		s.handleSessionCreate(w, r)
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("GET or POST only"))
	}
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req sessionCreateReq
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.ID == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing session id"))
		return
	}
	if strings.ContainsAny(req.ID, "/ ") {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("session id must not contain '/' or spaces"))
		return
	}
	if req.ID == core.DefaultSession {
		// The pinned name belongs to the session the process admits at
		// startup; a client must not mint an unevictable tenant.
		writeErr(w, http.StatusConflict, fmt.Errorf("session id %q is reserved", req.ID))
		return
	}
	if min(req.Procs, req.ThreadsPerProc, req.Churn, req.RunqueueSkew, req.ZombieTasks, req.PipeBurst) < 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf(
			"procs, threads_per_proc, churn, runqueue_skew, zombie_tasks and pipe_burst must not be negative"))
		return
	}
	opts := core.SessionOptions{
		Kernel: kernelsim.Options{
			Processes:      req.Procs,
			ThreadsPerProc: req.ThreadsPerProc,
			Churn:          req.Churn,
			RunqueueSkew:   req.RunqueueSkew,
			ZombieTasks:    req.ZombieTasks,
			PipeBurst:      req.PipeBurst,
		},
		Source:  core.SourceKind(req.Source),
		Figures: req.Figures,
	}
	if req.Core != "" {
		img, err := os.ReadFile(req.Core)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, fmt.Errorf("core dump: %w", err))
			return
		}
		opts.Source = core.SourceCore
		opts.CoreImage = img
	}
	ms, err := s.mgr.Create(req.ID, opts)
	if err != nil && ms == nil {
		code := http.StatusUnprocessableEntity
		switch {
		case errors.Is(err, core.ErrSessionExists):
			code = http.StatusConflict
		case errors.Is(err, core.ErrTooManySessions):
			code = http.StatusTooManyRequests
		case errors.Is(err, core.ErrMemBudget):
			code = http.StatusInsufficientStorage
		}
		writeErr(w, code, err)
		return
	}
	ms.RLock()
	panes := 0
	if ms.Session.Tree != nil {
		panes = len(ms.Session.Tree.Panes())
	}
	ms.RUnlock()
	resp := map[string]any{
		"id":        ms.ID,
		"source":    string(ms.Source),
		"panes":     panes,
		"mem_bytes": ms.MemBytes,
		"url":       "/sessions/" + ms.ID + "/",
	}
	if err != nil {
		// Resident but some figures failed to extract: report, don't fail.
		resp["warning"] = err.Error()
	}
	writeJSON(w, http.StatusCreated, resp)
}

// handleSessionPath routes /sessions/{id} (info, delete) and
// /sessions/{id}/... (the re-rooted single-session surface).
func (s *Server) handleSessionPath(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/sessions/")
	id, sub, nested := strings.Cut(rest, "/")
	if id == "" {
		writeErr(w, http.StatusNotFound, fmt.Errorf("missing session id"))
		return
	}
	if !nested || sub == "" {
		s.handleSessionByID(id, w, r)
		return
	}
	s.serveSession(id, "/"+sub, w, r)
}

// handleSessionByID serves GET (info) and DELETE on one session.
func (s *Server) handleSessionByID(id string, w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		for _, info := range s.mgr.List() {
			if info.ID == id {
				writeJSON(w, http.StatusOK, info)
				return
			}
		}
		writeErr(w, http.StatusNotFound, fmt.Errorf("no session %q", id))
	case http.MethodDelete:
		if id == core.DefaultSession {
			// The operator's session lives as long as the process.
			writeErr(w, http.StatusConflict, fmt.Errorf("session %q is pinned", id))
			return
		}
		if !s.mgr.Delete(id) {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no session %q", id))
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "deleted", "id": id})
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("GET or DELETE only"))
	}
}

// handleRound serves POST /sessions/{id}/round: advance the session's
// canned workload one step, take a stop event, re-extract incrementally,
// and fan pane deltas out to the session's stream clients — the HTTP
// trigger for what vlserver's -run-interval loop does on a timer.
func (s *Server) handleRound(ms *core.ManagedSession, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	if err := stepRound(ms); err != nil {
		code := http.StatusInternalServerError
		var panicked *core.TaskPanic
		switch {
		case errors.Is(err, core.ErrPostMortem):
			// A core-dump session is frozen: stepping it is a client
			// error, not a server fault.
			code = http.StatusUnprocessableEntity
		case errors.As(err, &panicked):
			// A round panicked: the session is quarantined and refuses
			// rounds until it is deleted.
			code = http.StatusServiceUnavailable
		}
		writeErr(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "stepped",
		"rounds": ms.Rounds(),
	})
}
