package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"visualinux/internal/core"
)

// This file is the fleet-debugging surface: GET/POST /fleet/query fans one
// ViewQL program across every managed session (live sims and loaded core
// dumps alike) and returns the provenance-tagged merge; /debug/fleet
// reports the fan-out health counters beside the member list.

// handleFleetQuery serves the cross-target query. POST takes a
// core.FleetQuery JSON body; GET takes ?figure=&q=[&sessions=a,b][&set=]
// for quick curl use. Both return the merged core.FleetResult.
func (s *Server) handleFleetQuery(w http.ResponseWriter, r *http.Request) {
	var q core.FleetQuery
	switch r.Method {
	case http.MethodPost:
		if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	case http.MethodGet:
		q.Figure = r.URL.Query().Get("figure")
		q.Query = r.URL.Query().Get("q")
		q.Set = r.URL.Query().Get("set")
		if raw := r.URL.Query().Get("sessions"); raw != "" {
			for _, id := range strings.Split(raw, ",") {
				if id = strings.TrimSpace(id); id != "" {
					q.Sessions = append(q.Sessions, id)
				}
			}
		}
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("GET or POST only"))
		return
	}
	res, err := s.fleet.Query(q)
	if err != nil {
		code := http.StatusUnprocessableEntity
		if errors.Is(err, core.ErrNoFleetSessions) {
			// Nothing admitted yet: the fleet surface exists but has no
			// members to serve — unavailable, not a bad request.
			code = http.StatusServiceUnavailable
		}
		writeErr(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// handleFleetDebug serves GET /debug/fleet.
func (s *Server) handleFleetDebug(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.fleet.Health())
}
