package server_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/server"
)

// getWithETag GETs a path with an optional If-None-Match header.
func getWithETag(t *testing.T, ts *httptest.Server, path, inm string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	resp.Body.Close()
	return resp, resp.Header.Get("ETag")
}

// An unchanged pane revalidates as 304 against its ETag; a ViewQL refine
// (epoch bump) must invalidate it.
func TestPaneETagRevalidation(t *testing.T) {
	ts := newServer(t)
	post(t, ts, "/api/vplot", `{"figure":"7-1"}`)

	resp, etag := getWithETag(t, ts, "/api/pane?id=1&format=text", "")
	if resp.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("first GET: status %d, etag %q", resp.StatusCode, etag)
	}
	resp, etag2 := getWithETag(t, ts, "/api/pane?id=1&format=text", etag)
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status %d, want 304", resp.StatusCode)
	}
	if etag2 != etag {
		t.Fatalf("etag drifted on revalidation: %q -> %q", etag, etag2)
	}
	// Wildcard and multi-value If-None-Match both match.
	if resp, _ := getWithETag(t, ts, "/api/pane?id=1&format=text", "*"); resp.StatusCode != http.StatusNotModified {
		t.Fatal("wildcard If-None-Match did not 304")
	}
	if resp, _ := getWithETag(t, ts, "/api/pane?id=1&format=text", `"bogus", `+etag); resp.StatusCode != http.StatusNotModified {
		t.Fatal("multi-value If-None-Match did not 304")
	}

	// Formats carry distinct validators: the text ETag must not satisfy a
	// JSON request.
	resp, jsonTag := getWithETag(t, ts, "/api/pane?id=1&format=json", etag)
	if resp.StatusCode != http.StatusOK || jsonTag == etag {
		t.Fatalf("json GET with text etag: status %d, etag %q", resp.StatusCode, jsonTag)
	}

	// A refine mutates shared display state (epoch bump): the old ETag is
	// now stale and the new one differs.
	post(t, ts, "/api/vctrl",
		`{"command":"viewql 1 a = SELECT task_struct FROM * WHERE pid == 1\nUPDATE a WITH collapsed: true"}`)
	resp, etag3 := getWithETag(t, ts, "/api/pane?id=1&format=text", etag)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-refine GET: status %d, want 200", resp.StatusCode)
	}
	if etag3 == etag {
		t.Fatal("ETag unchanged across a refine")
	}
}

// The /debug/metrics/history endpoint serves the default session's ring
// and 404s on a server without a default session.
func TestMetricsHistoryEndpoint(t *testing.T) {
	ts := newServer(t)
	resp, body := get(t, ts, "/debug/metrics/history")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if s := string(body); !strings.Contains(s, `"cap"`) || !strings.Contains(s, `"points"`) {
		t.Fatalf("history body missing fields: %s", s)
	}

	plain := httptest.NewServer(server.NewManaged(core.NewSessionManager(core.ManagerOptions{}, nil), nil))
	t.Cleanup(plain.Close)
	if resp, _ := get(t, plain, "/debug/metrics/history"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("no-default history status %d, want 404", resp.StatusCode)
	}
}
