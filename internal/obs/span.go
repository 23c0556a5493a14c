// Package obs is the observability substrate of the pipeline: a
// lightweight, allocation-conscious span tracer, a Prometheus-style metrics
// registry, a per-pane trace store, and trace exporters (JSON tree + Chrome
// trace_event). It is stdlib-only and nil-safe throughout: every method on a
// nil *Tracer, *Span, *Registry, *Counter, *Gauge, *Histogram, *Observer or
// *TraceStore is a no-op, so instrumentation points cost one pointer check
// when observability is off.
//
// The layers below (target) and above (viewcl, core, server, perf) all
// import obs; obs imports nothing of theirs.
package obs

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Tag is one key/value annotation on a span. A slice of Tags beats a map
// for the tiny cardinalities spans carry (2-5 tags): no hashing, no per-map
// allocation.
type Tag struct {
	Key   string
	Value string
}

// Span is one timed region of the extraction pipeline. Spans form a tree;
// children are appended under the tracer's lock, so concurrent goroutines
// may share a tracer as long as they use explicit parents (StartChild).
type Span struct {
	name     string
	start    time.Time
	dur      time.Duration
	tags     []Tag
	children []*Span
	parent   *Span
	tr       *Tracer
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the span's measured duration (0 before End).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.dur
}

// Tag annotates the span.
func (s *Span) Tag(key, value string) *Span {
	if s == nil {
		return nil
	}
	s.tags = append(s.tags, Tag{key, value})
	return s
}

// TagUint annotates the span with a decimal integer.
func (s *Span) TagUint(key string, v uint64) *Span {
	if s == nil {
		return nil
	}
	return s.Tag(key, strconv.FormatUint(v, 10))
}

// TagHex annotates the span with a 0x-prefixed hex integer (addresses).
func (s *Span) TagHex(key string, v uint64) *Span {
	if s == nil {
		return nil
	}
	return s.Tag(key, "0x"+strconv.FormatUint(v, 16))
}

// End closes the span. On the tracer's implicit stack, the parent becomes
// current again. Ending a span twice is harmless (the second End loses).
func (s *Span) End() {
	if s == nil {
		return
	}
	if s.dur == 0 {
		s.dur = time.Since(s.start)
		if s.dur == 0 {
			s.dur = time.Nanosecond // clock granularity floor: keep "ended" visible
		}
	}
	if s.tr != nil {
		s.tr.mu.Lock()
		if s.tr.cur == s {
			s.tr.cur = s.parent
		}
		s.tr.mu.Unlock()
	}
}

// StartChild opens a child span under s explicitly, without touching the
// tracer's current-span stack. Use this when several goroutines fan out
// under one parent span.
func (s *Span) StartChild(name string) *Span {
	if s == nil || s.tr == nil {
		return nil
	}
	return s.tr.newSpan(name, s, false)
}

// DefaultMaxSpans bounds a tracer's span count. Figures can materialize
// tens of thousands of boxes; past the cap new spans are dropped (counted,
// reported in the export) instead of ballooning memory.
const DefaultMaxSpans = 8192

// Tracer collects one trace tree, typically one per VPlot extraction. The
// zero tracer is not usable; NewTracer opens the root span. The tracer
// keeps an implicit current-span stack for the common single-goroutine
// extraction path; StartChild bypasses it for concurrent producers.
type Tracer struct {
	mu      sync.Mutex
	root    *Span
	cur     *Span
	max     int
	count   int
	dropped uint64
}

// NewTracer opens a trace whose root span is named name.
func NewTracer(name string) *Tracer {
	tr := &Tracer{max: DefaultMaxSpans}
	root := &Span{name: name, start: time.Now(), tr: tr}
	tr.root = root
	tr.cur = root
	tr.count = 1
	return tr
}

// SetMaxSpans overrides the span budget (before spans are created).
func (t *Tracer) SetMaxSpans(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.mu.Lock()
	t.max = n
	t.mu.Unlock()
}

// StartSpan opens a child of the current span and makes it current.
// Returns nil (a no-op span) once the span budget is exhausted.
func (t *Tracer) StartSpan(name string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(name, nil, true)
}

func (t *Tracer) newSpan(name string, parent *Span, makeCurrent bool) *Span {
	t.mu.Lock()
	if t.count >= t.max {
		t.dropped++
		t.mu.Unlock()
		return nil
	}
	t.count++
	if parent == nil {
		parent = t.cur
		if parent == nil {
			parent = t.root
		}
	}
	s := &Span{name: name, start: time.Now(), parent: parent, tr: t}
	parent.children = append(parent.children, s)
	if makeCurrent {
		t.cur = s
	}
	t.mu.Unlock()
	return s
}

// Dropped reports how many spans the budget discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Root returns the root span (nil on a nil tracer).
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span (and with it the trace) and returns it.
func (t *Tracer) Finish() *Span {
	if t == nil {
		return nil
	}
	t.root.End()
	return t.root
}

// --- export -------------------------------------------------------------------

// SpanExport is the immutable, JSON-ready form of a span tree. StartUS is
// relative to the root span, so traces are stable across machines and
// serializable without wall-clock noise.
type SpanExport struct {
	Name     string            `json:"name"`
	StartUS  int64             `json:"start_us"`
	DurUS    int64             `json:"dur_us"`
	Tags     map[string]string `json:"tags,omitempty"`
	Children []*SpanExport     `json:"children,omitempty"`
	// Dropped is set on the root when the tracer's span budget discarded
	// spans — the tree is complete down to that budget, not beyond.
	Dropped uint64 `json:"dropped_spans,omitempty"`
}

// Export snapshots the trace rooted at t into its serializable form.
// Call after Finish; open spans export with their duration so far.
func (t *Tracer) Export() *SpanExport {
	if t == nil || t.root == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	exp := exportSpan(t.root, t.root.start)
	exp.Dropped = t.dropped
	return exp
}

// Export snapshots a single span subtree (start times relative to s).
func (s *Span) Export() *SpanExport {
	if s == nil {
		return nil
	}
	if s.tr != nil {
		s.tr.mu.Lock()
		defer s.tr.mu.Unlock()
	}
	return exportSpan(s, s.start)
}

func exportSpan(s *Span, epoch time.Time) *SpanExport {
	dur := s.dur
	if dur == 0 {
		dur = time.Since(s.start)
	}
	e := &SpanExport{
		Name:    s.name,
		StartUS: s.start.Sub(epoch).Microseconds(),
		DurUS:   dur.Microseconds(),
	}
	if len(s.tags) > 0 {
		e.Tags = make(map[string]string, len(s.tags))
		for _, tg := range s.tags {
			e.Tags[tg.Key] = tg.Value
		}
	}
	for _, c := range s.children {
		e.Children = append(e.Children, exportSpan(c, epoch))
	}
	return e
}

// Walk visits the export tree depth-first, root included.
func (e *SpanExport) Walk(fn func(*SpanExport)) {
	if e == nil {
		return
	}
	fn(e)
	for _, c := range e.Children {
		c.Walk(fn)
	}
}

// SumLeaves totals DurUS over leaves whose name matches name (all leaves
// when name is ""). This is how tests and the trace endpoint relate leaf
// target-read time to whole-extraction time.
func (e *SpanExport) SumLeaves(name string) int64 {
	var sum int64
	e.Walk(func(s *SpanExport) {
		if len(s.Children) == 0 && (name == "" || s.Name == name) {
			sum += s.DurUS
		}
	})
	return sum
}

// SumTag totals an integer-valued tag (e.g. the modeled link nanoseconds a
// target.read span carries) over the whole tree.
func (e *SpanExport) SumTag(key string) int64 {
	var sum int64
	e.Walk(func(s *SpanExport) {
		if v, ok := s.Tags[key]; ok {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				sum += n
			}
		}
	})
	return sum
}

// FormatTree renders the export as an indented text tree (the v-trace
// command's output).
func (e *SpanExport) FormatTree() string {
	if e == nil {
		return "(no trace)\n"
	}
	var sb strings.Builder
	var rec func(s *SpanExport, depth int)
	rec = func(s *SpanExport, depth int) {
		fmt.Fprintf(&sb, "%s%s  %.3fms", strings.Repeat("  ", depth), s.Name, float64(s.DurUS)/1000)
		if len(s.Tags) > 0 {
			keys := make([]string, 0, len(s.Tags))
			for k := range s.Tags {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			sb.WriteString("  {")
			for i, k := range keys {
				if i > 0 {
					sb.WriteString(" ")
				}
				fmt.Fprintf(&sb, "%s=%s", k, s.Tags[k])
			}
			sb.WriteString("}")
		}
		sb.WriteString("\n")
		for _, c := range s.Children {
			rec(c, depth+1)
		}
	}
	rec(e, 0)
	if e.Dropped > 0 {
		fmt.Fprintf(&sb, "(%d spans dropped over budget)\n", e.Dropped)
	}
	return sb.String()
}

// --- context propagation ------------------------------------------------------

type tracerKey struct{}

// WithTracer returns a context carrying the tracer.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, tr)
}

// TracerFrom extracts the tracer from ctx (nil when absent — and every obs
// method is nil-safe, so callers use the result unconditionally).
func TracerFrom(ctx context.Context) *Tracer {
	tr, _ := ctx.Value(tracerKey{}).(*Tracer)
	return tr
}

// StartSpan opens a span on the context's tracer. The caller must End it.
func StartSpan(ctx context.Context, name string) *Span {
	return TracerFrom(ctx).StartSpan(name)
}

// TracerCarrier is implemented by instrumented target wrappers that accept
// the per-extraction tracer (the interpreter attaches it for the duration
// of a run so link transactions appear as leaf spans of the plot's tree).
type TracerCarrier interface {
	SetTracer(*Tracer)
}
