package server

import (
	"strconv"
	"sync"
	"time"

	"visualinux/internal/core"
	"visualinux/internal/panes"
	"visualinux/internal/render"
	"visualinux/internal/stream"
)

// tenant is one managed session's serving state: the session itself plus
// everything the HTTP layer keeps per session — the serialization cache,
// the stream broker, and the fan-out bookkeeping. The default session on
// the legacy routes is a tenant like any other.
type tenant struct {
	ms      *core.ManagedSession
	session *core.Session // ms.Session

	// mu guards the session's mutable state. Mutating handlers (vplot,
	// vctrl, vchat, import, stream rounds) take the write lock; read-only
	// handlers (panes, pane, export, stream subscribe, diagnose) take the
	// read lock and run concurrently. Holding the write lock across a full
	// request used to serialize every reader behind a single slow
	// serialization — the read paths only need the tree to not change
	// under them.
	mu sync.RWMutex

	// cacheMu guards paneCache only. It is deliberately NOT held across
	// rendering: two readers racing to fill the same entry both render and
	// the last write wins, which costs one duplicate encode but keeps slow
	// renders from serializing unrelated readers.
	cacheMu sync.Mutex
	// paneCache keeps the last serialized body per pane+format, keyed by
	// the same version/epoch ETag served to clients: an unchanged pane is
	// neither re-rendered nor re-serialized, it's one buffer write. The
	// stream plane's fan-out serializes through the same cache, so a GET
	// and a pushed frame at the same epoch share one encode, and every
	// stream client of a format shares the entry's once-quoted body.
	paneCache map[paneKey]*cachedPane

	// broker fans pane deltas out to /stream subscribers; lastPub tracks
	// the (version, epoch) each pane was last published at, and round
	// counts fan-out rounds (the SSE frame's `round` field). Both are
	// touched only under mu's write lock.
	broker  *stream.Broker
	lastPub map[int]pubState
	round   uint64

	// renderStall, when set, is invoked at the top of every cache-miss
	// serialization — a test hook that lets the concurrent-readers
	// regression test park one reader mid-render and prove others proceed.
	renderStall func(paneID int, format string)
}

// paneKey names one pane+format entry of the serialization cache.
type paneKey struct {
	pane   int
	format string
}

// cachedPane is one serialized pane representation. Entries are replaced,
// never mutated, when the pane moves on, so body and quoted stay valid for
// any frame still queued to a stream client.
type cachedPane struct {
	etag  string
	ctype string
	body  []byte

	quoteOnce sync.Once
	quoted    []byte
}

// quotedBody returns body as a JSON string literal, the form an SSE event
// carries. It is quoted on first use and kept beside the body, so the
// stream clients of a (pane, version, epoch, format) share one quote.
func (c *cachedPane) quotedBody() []byte {
	c.quoteOnce.Do(func() {
		// Quoting a compact JSON body escapes every '"': about a quarter more.
		c.quoted = render.AppendJSONString(make([]byte, 0, len(c.body)+len(c.body)/4+2), c.body)
	})
	return c.quoted
}

func newTenant(ms *core.ManagedSession) *tenant {
	t := &tenant{
		ms:        ms,
		session:   ms.Session,
		paneCache: make(map[paneKey]*cachedPane),
		broker:    stream.NewBroker(ms.Obs, 0),
		lastPub:   make(map[int]pubState),
	}
	// The vchat diagnosis layer answers "why is my stream laggy?" from the
	// broker's health snapshot; hand the session a way to read it.
	ms.Session.StreamHealth = t.broker.Health
	// Record the startup panes as published: a first subscriber gets them
	// in its catch-up snapshot, not again after the first round.
	t.publishLocked(nil)
	return t
}

// close tears the tenant's serving state down (on delete or eviction):
// every stream client is unsubscribed and further publishes are no-ops.
func (t *tenant) close() {
	t.broker.Close()
}

// stepRound advances the session's workload one step and re-extracts:
// the step of a stop event (streamRound).
func (t *tenant) stepRound() error {
	_, err := t.ms.StepRound()
	return err
}

// serializePane returns the pane's serialized representation in the given
// format, from the per-pane+format cache when the (version, epoch) ETag
// still matches, rendering and caching otherwise. The caller must hold
// t.mu (read or write). The bool reports a cache hit.
func (t *tenant) serializePane(p *panes.Pane, format string) (*cachedPane, bool) {
	etag := t.paneETag(p, format)
	key := paneKey{p.ID, format}
	t.cacheMu.Lock()
	c := t.paneCache[key]
	t.cacheMu.Unlock()
	if c != nil && c.etag == etag {
		return c, true
	}
	if t.renderStall != nil {
		t.renderStall(p.ID, format)
	}
	t0 := time.Now()
	var body []byte
	var ctype string
	switch format {
	case "text":
		ctype = "text/plain; charset=utf-8"
		body = []byte(render.Text(p.Graph))
	case "dot":
		ctype = "text/vnd.graphviz"
		body = []byte(render.DOT(p.Graph))
	default:
		ctype = "application/json"
		// Presize from the stale entry: a pane's next version is about as
		// large as its last, so the encode appends without regrowing.
		var buf []byte
		if c != nil {
			buf = make([]byte, 0, len(c.body)+len(c.body)/8)
		}
		body = render.AppendJSON(buf, p.Graph)
	}
	c = &cachedPane{etag: etag, ctype: ctype, body: body}
	t.cacheMu.Lock()
	t.paneCache[key] = c
	t.cacheMu.Unlock()
	t.session.Obs.ObserveStage("render", time.Since(t0))
	return c, false
}

// clearPaneCache drops every cached serialization — required after an
// import, whose restored panes restart version/epoch numbering and could
// otherwise alias a stale cache entry byte-for-byte ETag-equal to very
// different content. Caller holds t.mu's write lock.
func (t *tenant) clearPaneCache() {
	t.cacheMu.Lock()
	t.paneCache = make(map[paneKey]*cachedPane)
	t.cacheMu.Unlock()
	t.lastPub = make(map[int]pubState)
}

// paneETag is the weak validator over pane version + tree epoch shared by
// the poll path (ETag / If-None-Match) and the stream plane (frame
// identity + change detection). Caller holds t.mu.
func (t *tenant) paneETag(p *panes.Pane, format string) string {
	// Appended by hand, one allocation: every GET and every fan-out
	// diff computes it, 304s included.
	b := make([]byte, 0, 48)
	b = append(b, `W/"p`...)
	b = strconv.AppendInt(b, int64(p.ID), 10)
	b = append(b, ".v"...)
	b = strconv.AppendInt(b, int64(p.Version), 10)
	b = append(b, ".e"...)
	b = strconv.AppendInt(b, int64(t.session.Tree.Epoch()), 10)
	b = append(b, '.')
	b = append(b, format...)
	return string(append(b, '"'))
}
