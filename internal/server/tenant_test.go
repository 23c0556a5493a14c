package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/vclstdlib"
	"visualinux/internal/viewcl"
)

func jsonBody(s string) io.Reader { return strings.NewReader(s) }

// do runs one request through the server's mux without TCP.
func do(srv *Server, method, path, body string) (int, string) {
	rec := httptest.NewRecorder()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	srv.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec.Code, rec.Body.String()
}

// TestSessionFabric64Tenants is the tentpole acceptance test: one server
// hosts 64 concurrent sessions under /sessions/{id}/..., every tenant
// sharing the immutable infrastructure — after the first session warms the
// stdlib, 63 more admissions must cost zero additional ViewCL parses or
// compiles, and every kernel must hold the same ctypes registry pointer.
func TestSessionFabric64Tenants(t *testing.T) {
	const tenants = 64
	mgr := core.NewSessionManager(core.ManagerOptions{MaxSessions: tenants + 8}, obs.NewObserver())
	srv := NewManaged(mgr, nil)

	// Warm-up tenant: parses+compiles figure 7-1's program unless an
	// earlier test in this process already did — either way, after this
	// create the shared caches hold it.
	if code, body := do(srv, "POST", "/sessions",
		`{"id":"s0","procs":1,"figures":["7-1"]}`); code != 201 {
		t.Fatalf("warm-up create: %d %s", code, body)
	}
	_, missesBefore, _ := viewcl.ParseCacheStats()
	compilesBefore := viewcl.CompileCount()

	var wg sync.WaitGroup
	errs := make(chan string, tenants)
	for i := 1; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := do(srv, "POST", "/sessions",
				fmt.Sprintf(`{"id":"s%d","procs":1,"figures":["7-1"]}`, i))
			if code != 201 {
				errs <- fmt.Sprintf("s%d: %d %s", i, code, body)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	// Shared-infrastructure proof: 63 admissions after the warm-up cost
	// zero additional stdlib parses and zero lowers — one parse+compile
	// total, however many tenants extract the figure.
	_, missesAfter, _ := viewcl.ParseCacheStats()
	if d := missesAfter - missesBefore; d != 0 {
		t.Errorf("63 tenant admissions re-parsed the stdlib %d times; want 0", d)
	}
	if d := viewcl.CompileCount() - compilesBefore; d != 0 {
		t.Errorf("63 tenant admissions re-compiled the stdlib %d times; want 0", d)
	}

	// Every tenant's kernel shares one ctypes registry.
	shared := kernelsim.SharedRegistry()
	if mgr.Len() != tenants {
		t.Errorf("session registry holds %d, want %d", mgr.Len(), tenants)
	}
	for i := 0; i < tenants; i++ {
		id := fmt.Sprintf("s%d", i)
		if ms, ok := mgr.Attach(id); !ok || ms.Kernel.Reg != shared {
			t.Errorf("session %s missing or built a private ctypes registry", id)
		}
	}

	// The fleet listing sees all of them.
	if code, body := do(srv, "GET", "/sessions", ""); code != 200 {
		t.Fatalf("list: %d", code)
	} else {
		var infos []core.SessionInfo
		if err := json.Unmarshal([]byte(body), &infos); err != nil {
			t.Fatal(err)
		}
		if len(infos) != tenants {
			t.Fatalf("listed %d sessions, want %d", len(infos), tenants)
		}
	}

	// Every session serves its own re-rooted surface; panes are isolated.
	for _, id := range []string{"s0", "s17", "s63"} {
		code, body := do(srv, "GET", "/sessions/"+id+"/api/panes", "")
		if code != 200 {
			t.Fatalf("%s panes: %d %s", id, code, body)
		}
		var panesOut []map[string]any
		if err := json.Unmarshal([]byte(body), &panesOut); err != nil {
			t.Fatal(err)
		}
		if len(panesOut) != 1 {
			t.Fatalf("%s holds %d panes, want the 1 requested figure", id, len(panesOut))
		}
	}

	// A v-command against one tenant does not leak into another.
	if code, body := do(srv, "POST", "/sessions/s5/api/vplot", `{"figure":"3-4"}`); code != 200 {
		t.Fatalf("tenant vplot: %d %s", code, body)
	}
	if _, body := do(srv, "GET", "/sessions/s5/api/panes", ""); !strings.Contains(body, "3-4") {
		t.Fatal("vplot did not land in s5")
	}
	if _, body := do(srv, "GET", "/sessions/s6/api/panes", ""); strings.Contains(body, "3-4") {
		t.Fatal("s5's vplot leaked into s6")
	}

	// Per-session health row for every tenant.
	if code, body := do(srv, "GET", "/debug/sessions", ""); code != 200 {
		t.Fatalf("/debug/sessions: %d", code)
	} else {
		var health struct {
			Sessions []sessionHealth `json:"sessions"`
			Resident int             `json:"resident"`
			Store    struct {
				UniqueBytes   uint64 `json:"unique_bytes"`
				SharedBytes   uint64 `json:"shared_bytes"`
				TemplateForks uint64 `json:"template_forks"`
			} `json:"store"`
		}
		if err := json.Unmarshal([]byte(body), &health); err != nil {
			t.Fatal(err)
		}
		if health.Resident != tenants || len(health.Sessions) != tenants {
			t.Fatalf("health reports %d/%d sessions, want %d", health.Resident, len(health.Sessions), tenants)
		}
		for _, row := range health.Sessions {
			if row.Panes == 0 && row.ID != "s5" {
				t.Fatalf("session %s health row reports no panes", row.ID)
			}
			if row.OwnedBytes == 0 || row.SharedBytes == 0 {
				t.Fatalf("session %s residency breakdown missing: owned=%d shared=%d",
					row.ID, row.OwnedBytes, row.SharedBytes)
			}
		}
		// Fork-admitted tenants dedup against the shared store: the unique
		// resident bytes sit well below the sum of per-session views.
		if health.Store.UniqueBytes == 0 || health.Store.TemplateForks == 0 {
			t.Fatalf("store totals missing: unique=%d forks=%d",
				health.Store.UniqueBytes, health.Store.TemplateForks)
		}
		if health.Store.SharedBytes <= health.Store.UniqueBytes {
			t.Fatalf("no sharing visible: shared=%d unique=%d",
				health.Store.SharedBytes, health.Store.UniqueBytes)
		}
	}

	// Deleting one tenant frees its slot and keeps the rest serving.
	if code, _ := do(srv, "DELETE", "/sessions/s17", ""); code != 200 {
		t.Fatalf("delete s17: %d", code)
	}
	if code, _ := do(srv, "GET", "/sessions/s17/api/panes", ""); code != 404 {
		t.Fatalf("deleted session still serves: %d", code)
	}
	if code, _ := do(srv, "GET", "/sessions/s18/api/panes", ""); code != 200 {
		t.Fatalf("neighbor died with s17: %d", code)
	}
	if mgr.Len() != tenants-1 {
		t.Fatalf("manager holds %d sessions after delete, want %d", mgr.Len(), tenants-1)
	}
}

// TestSessionRESTLifecycle covers the REST surface's edges: admission
// errors map to status codes, /round drives managed stop events, and the
// legacy alias serves the default session.
func TestSessionRESTLifecycle(t *testing.T) {
	mgr := core.NewSessionManager(core.ManagerOptions{MaxSessions: 2}, obs.NewObserver())
	srv := NewManaged(mgr, nil)

	// Legacy routes without a default session answer 404, not panic.
	if code, _ := do(srv, "GET", "/api/panes", ""); code != 404 {
		t.Fatalf("legacy route without default: %d", code)
	}

	if code, body := do(srv, "POST", "/sessions", `{"id":"a","procs":1,"figures":["7-1"]}`); code != 201 {
		t.Fatalf("create: %d %s", code, body)
	}
	// Duplicate → 409.
	if code, _ := do(srv, "POST", "/sessions", `{"id":"a","procs":1,"figures":["7-1"]}`); code != 409 {
		t.Fatalf("duplicate: want 409")
	}
	// Bad IDs and bodies → 400.
	if code, _ := do(srv, "POST", "/sessions", `{"procs":1}`); code != 400 {
		t.Fatal("missing id accepted")
	}
	if code, _ := do(srv, "POST", "/sessions", `{"id":"x/y"}`); code != 400 {
		t.Fatal("slash id accepted")
	}
	if code, _ := do(srv, "POST", "/sessions", `{nope`); code != 400 {
		t.Fatal("corrupt body accepted")
	}
	// Unknown figure → 422.
	if code, _ := do(srv, "POST", "/sessions", `{"id":"b","figures":["no-such"]}`); code != 422 {
		t.Fatal("unknown figure accepted")
	}
	// Session cap → 429.
	if code, body := do(srv, "POST", "/sessions", `{"id":"b","procs":1,"figures":["7-1"]}`); code != 201 {
		t.Fatalf("second create: %d %s", code, body)
	}
	if code, _ := do(srv, "POST", "/sessions", `{"id":"c","procs":1,"figures":["7-1"]}`); code != 429 {
		t.Fatal("over-cap create accepted")
	}

	// Info row.
	if code, body := do(srv, "GET", "/sessions/a", ""); code != 200 || !strings.Contains(body, `"id": "a"`) {
		t.Fatalf("info: %d %s", code, body)
	}
	if code, _ := do(srv, "GET", "/sessions/zzz", ""); code != 404 {
		t.Fatal("ghost session info served")
	}

	// /round advances the managed workload and bumps the rounds counter.
	var before core.SessionInfo
	_, body := do(srv, "GET", "/sessions/a", "")
	if err := json.Unmarshal([]byte(body), &before); err != nil {
		t.Fatal(err)
	}
	if code, body := do(srv, "POST", "/sessions/a/round", ""); code != 200 {
		t.Fatalf("round: %d %s", code, body)
	}
	var after core.SessionInfo
	_, body = do(srv, "GET", "/sessions/a", "")
	if err := json.Unmarshal([]byte(body), &after); err != nil {
		t.Fatal(err)
	}
	if after.Rounds <= before.Rounds {
		t.Fatalf("rounds did not advance: %d -> %d", before.Rounds, after.Rounds)
	}

	// Ghost delete → 404; real delete → 200 and slot freed.
	if code, _ := do(srv, "DELETE", "/sessions/zzz", ""); code != 404 {
		t.Fatal("ghost delete accepted")
	}
	if code, _ := do(srv, "DELETE", "/sessions/b", ""); code != 200 {
		t.Fatal("delete failed")
	}
	if code, body := do(srv, "POST", "/sessions", `{"id":"c","procs":1,"figures":["7-1"]}`); code != 201 {
		t.Fatalf("create after delete: %d %s", code, body)
	}
}

// TestLegacyServerHostsTenants checks the compatibility contract: a server
// with a default session serves the un-prefixed routes, answers to
// /sessions/default/..., and can still admit managed tenants.
func TestLegacyServerHostsTenants(t *testing.T) {
	srv := serveDefault(t, []string{"7-1"})

	legacyCode, legacyBody := do(srv, "GET", "/api/panes", "")
	if legacyCode != 200 {
		t.Fatalf("legacy panes: %d", legacyCode)
	}
	aliasCode, aliasBody := do(srv, "GET", "/sessions/default/api/panes", "")
	if aliasCode != 200 || aliasBody != legacyBody {
		t.Fatalf("/sessions/default alias diverges from legacy route: %d", aliasCode)
	}

	// The default session is managed: /round steps its workload.
	if code, body := do(srv, "POST", "/sessions/default/round", ""); code != 200 {
		t.Fatalf("default /round: %d %s", code, body)
	}

	// A managed tenant rides alongside the legacy session.
	if code, body := do(srv, "POST", "/sessions", `{"id":"extra","procs":1,"figures":["3-4"]}`); code != 201 {
		t.Fatalf("tenant next to legacy session: %d %s", code, body)
	}
	if _, body := do(srv, "GET", "/sessions/extra/api/panes", ""); !strings.Contains(body, "3-4") {
		t.Fatal("managed tenant has no panes")
	}
	if _, body := do(srv, "GET", "/api/panes", ""); strings.Contains(body, "3-4") {
		t.Fatal("tenant pane leaked into the legacy session")
	}
}

// A tenant whose round panicked answers 503 to every later round until it
// is deleted; a second tenant keeps serving panes and rounds throughout.
func TestPanickingTenantRound503(t *testing.T) {
	mgr := core.NewSessionManager(core.ManagerOptions{}, obs.NewObserver())
	srv := NewManaged(mgr, nil)
	for _, id := range []string{"bad", "good"} {
		if code, body := do(srv, "POST", "/sessions", `{"id":"`+id+`","procs":1,"figures":["7-1"]}`); code != 201 {
			t.Fatalf("create %s: %d %s", id, code, body)
		}
	}
	bad, _ := mgr.Attach("bad")
	bad.Extractor.OnFigure = func(int, vclstdlib.Figure, bool, *viewcl.Result) { panic("injected") }

	for i := 0; i < 2; i++ {
		if code, body := do(srv, "POST", "/sessions/bad/round", ""); code != 503 || !strings.Contains(body, "injected") {
			t.Fatalf("round %d on the panicked tenant: %d %s, want 503", i, code, body)
		}
		if code, body := do(srv, "POST", "/sessions/good/round", ""); code != 200 {
			t.Fatalf("round %d on the healthy tenant: %d %s", i, code, body)
		}
		if code, body := do(srv, "GET", "/sessions/good/api/panes", ""); code != 200 {
			t.Fatalf("healthy tenant panes: %d %s", code, body)
		}
	}
	if code, body := do(srv, "DELETE", "/sessions/bad", ""); code != 200 {
		t.Fatalf("delete the panicked tenant: %d %s", code, body)
	}
	if code, body := do(srv, "POST", "/sessions", `{"id":"bad","procs":1,"figures":["7-1"]}`); code != 201 {
		t.Fatalf("re-create after delete: %d %s", code, body)
	}
	if code, body := do(srv, "POST", "/sessions/bad/round", ""); code != 200 {
		t.Fatalf("round on the re-created tenant: %d %s", code, body)
	}
}
