package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"visualinux/internal/core"
	"visualinux/internal/coredump"
	"visualinux/internal/kernelsim"
)

// get fetches path from ts and returns the status and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, body
}

// coreFile writes a small kernel's core dump under t's temp dir.
func coreFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "vmcore")
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fh.Close()
	if err := coredump.Dump(kernelsim.Build(kernelsim.Options{Processes: 2}).Target(), fh); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStartupModes drives the one startup path in each mode: the default
// session serves the legacy routes byte-identically to /sessions/default/,
// is marked in /debug/sessions, exports the session-manager and fleet
// memory metrics on the legacy /debug/metrics, and survives an idle sweep that evicts a sibling.
func TestStartupModes(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  config
	}{
		{"sim", config{figure: "7-1", procs: 2}},
		{"run-interval", config{figure: "7-1", procs: 2, runEvery: time.Millisecond}},
		{"core", config{figure: "7-1", coreFile: coreFile(t)}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := mode.cfg
			cfg.idleTTL = time.Millisecond
			a, err := start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// One tick of -run-interval: the cold round plus one stop event.
			for deadline := time.Now().Add(10 * time.Second); cfg.runEvery > 0 && a.deflt.Rounds() < 2; {
				if time.Now().After(deadline) {
					a.stop()
					t.Fatal("no stop event ran")
				}
				time.Sleep(time.Millisecond)
			}
			a.stop() // no round may land between the compared reads
			ts := httptest.NewServer(a.srv)
			t.Cleanup(ts.Close)

			samePanes := func() {
				t.Helper()
				code, legacy := get(t, ts, "/api/panes")
				_, prefixed := get(t, ts, "/sessions/default/api/panes")
				if code != http.StatusOK || !bytes.Equal(legacy, prefixed) {
					t.Fatalf("legacy /api/panes (%d) differs from /sessions/default/api/panes:\n%s\n%s", code, legacy, prefixed)
				}
				if !strings.Contains(string(legacy), "fig7-1") {
					t.Fatalf("default session lacks its startup figure: %s", legacy)
				}
			}
			samePanes()

			_, body := get(t, ts, "/debug/sessions")
			var health struct {
				Sessions []struct {
					ID      string `json:"id"`
					Default bool   `json:"default"`
				} `json:"sessions"`
			}
			if err := json.Unmarshal(body, &health); err != nil {
				t.Fatal(err)
			}
			if len(health.Sessions) != 1 || health.Sessions[0].ID != core.DefaultSession || !health.Sessions[0].Default {
				t.Fatalf("/debug/sessions does not mark the default: %s", body)
			}
			_, metrics := get(t, ts, "/debug/metrics")
			for _, series := range []string{"vl_sessions_active 1", "vl_mem_store_unique_bytes", "vl_fleet_owned_bytes"} {
				if !bytes.Contains(metrics, []byte(series)) {
					t.Fatalf("legacy /debug/metrics lacks %s", series)
				}
			}

			// An idle sweep evicts a sibling but never the default.
			resp, err := http.Post(ts.URL+"/sessions", "application/json",
				strings.NewReader(`{"id":"idle","procs":1,"figures":["7-1"]}`))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("create sibling: %d", resp.StatusCode)
			}
			time.Sleep(5 * time.Millisecond)
			a.mgr.SweepIdle()
			if _, ok := a.mgr.Attach("idle"); ok {
				t.Fatal("the idle sibling survived the sweep")
			}
			if _, ok := a.mgr.Attach(core.DefaultSession); !ok {
				t.Fatal("the idle sweep evicted the default session")
			}
			samePanes()
		})
	}
}
