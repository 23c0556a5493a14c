package viewcl

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"visualinux/internal/ctypes"
	"visualinux/internal/expr"
	"visualinux/internal/graph"
	"visualinux/internal/obs"
	"visualinux/internal/target"
)

// Flag names one bit of a flags word (the flag:<id> decorator vocabulary).
type Flag struct {
	Mask uint64
	Name string
}

// Interp evaluates ViewCL programs against a debug target. Programs run
// through the compiled engine (compile.go, exec.go); the tree-walking
// reference evaluator the tests compare it against lives in walker_test.go.
type Interp struct {
	Env    *expr.Env
	Flags  map[string][]Flag              // flag:<id> decorator sets
	Emojis map[string]func(uint64) string // emoji:<id> decorator renderers

	// Safety valves for runaway traversals.
	MaxObjects int // boxes per plot (default 50_000)
	MaxElems   int // elements per container (default 4096)

	// Obs, when set, enables per-run tracing (a span tree per Run, with
	// per-plot, per-box, per-view, per-container-iteration and link
	// transaction spans) and metrics. Nil disables both at near-zero cost.
	Obs *obs.Observer

	// PrefetchHints makes container iterators prefetch each element's full
	// object (node - anchor offset, sizeof element) per hop, so an element
	// straddling pages costs one coalesced fill instead of a walk-fill plus
	// a materialize-fill. On by default; tests toggle it to measure.
	PrefetchHints bool

	// Memo, when set, caches extracted boxes across runs: reads are
	// recorded per box, and a later run reuses any box whose recorded
	// bytes are provably unchanged (snapshot generations or content
	// hashes) instead of re-reading and re-rendering it. Runs also report
	// their window-granular ReadSet so callers can skip whole figures.
	Memo *Memo

	defs map[string]*boxDef

	// One reusable execution state (frames, scratch env, run maps). A second
	// concurrent Run simply allocates a fresh one.
	execMu   sync.Mutex
	execFree *execState
}

// New creates an interpreter over the environment (target + helpers).
func New(env *expr.Env) *Interp {
	in := &Interp{
		Env:           env,
		Flags:         make(map[string][]Flag),
		Emojis:        make(map[string]func(uint64) string),
		MaxObjects:    50_000,
		MaxElems:      4096,
		PrefetchHints: true,
		defs:          make(map[string]*boxDef),
	}
	// The builtin emoji renderers (lock, onoff) live in package-level
	// defaultEmojis; Emojis only carries per-interpreter overrides.
	return in
}

// boxDef is a resolved Box declaration. build fills a fresh instance's
// views; the engine that registered the definition sets it (the compiled
// engine's is runCompiledViews over comp, the lowered views), so buildBox
// never asks which engine is running.
type boxDef struct {
	name  string
	ctype *ctypes.Type
	views []*resolvedView
	where []Binding // merged define-level + per-view where clauses
	comp  *compiledDef
	build func(r *runState, def *boxDef, addr uint64, b *graph.Box, fr *memoFrame)
}

type resolvedView struct {
	name  string
	items []ItemDecl
}

// Result is the outcome of running a program.
type Result struct {
	Graph  *graph.Graph
	Errors []error // non-fatal extraction issues (NULL links, etc.)
	// Trace is the extraction's span tree (nil unless Interp.Obs is set).
	Trace *obs.SpanExport

	// ReadSet is the merged set of target ranges this run's output depends
	// on, widened to snapshot fill windows (target.FillWindow; nil unless
	// Interp.Memo is set). Callers use it
	// with a snapshot's RangesUnchangedSince as the free first check before
	// reusing an entire figure.
	ReadSet []target.Range
	// Reads are the exact byte ranges this run's output depends on, in read
	// order (nil unless Interp.Memo is set): every read through the run's
	// target, and for each memo entry the run reused, the ranges that entry
	// recorded. Contiguous reads are coalesced, which leaves their byte
	// sequence as it was. An extraction is a deterministic function of these
	// bytes, so equal target.SumRanges over them at two generations proves
	// the output unchanged even when ReadSet's windows were written. A read
	// that failed is listed too, so the sum fails while it stays unreadable.
	Reads []target.Range
	// BoxesReused / BoxesBuilt split the run's boxes into memo clones vs
	// fresh materializations.
	BoxesReused int
	BoxesBuilt  int
}

// buildDef resolves a define statement (ctype, view inheritance, merged
// where clauses) without registering or lowering it.
func (in *Interp) buildDef(d *DefineStmt) (*boxDef, error) {
	ct, ok := in.Env.Types().Lookup(d.CType)
	if !ok {
		return nil, errf(d.Line, "define %s: unknown C type %q", d.Name, d.CType)
	}
	def := &boxDef{name: d.Name, ctype: ct.Strip()}
	def.where = append(def.where, d.Where...)
	byName := map[string]*resolvedView{}
	for _, vd := range d.Views {
		rv := &resolvedView{name: vd.Name}
		if vd.Parent != "" {
			parent, ok := byName[vd.Parent]
			if !ok {
				return nil, errf(vd.Line, "define %s: view :%s inherits unknown :%s", d.Name, vd.Name, vd.Parent)
			}
			rv.items = append(rv.items, parent.items...)
		}
		rv.items = append(rv.items, vd.Items...)
		def.where = append(def.where, vd.Where...)
		byName[vd.Name] = rv
		def.views = append(def.views, rv)
	}
	if len(def.views) == 0 {
		def.views = []*resolvedView{{name: "default"}}
	}
	return def, nil
}

// Run evaluates a full program: definitions, bindings, plot statements.
// The returned graph contains every box materialized while evaluating the
// plotted roots. The program is lowered to compiled closure chains once per
// type registry, through the process-wide compile cache (cache.go).
func (in *Interp) Run(prog *Program) (*Result, error) {
	cp, err := sharedCompiles.get(in, prog)
	if err != nil {
		return nil, err
	}
	return in.runCompiled(cp)
}

// finishRun computes the run's stats, read set and trace export; shared by
// both engines so Result is shaped identically.
func (in *Interp) finishRun(run *runState, t0 time.Time, reads0, bytes0 uint64) (*Result, error) {
	reads1, bytes1 := in.Env.Target.Stats().Snapshot()
	run.g.Stats = graph.Stats{
		Objects:    len(run.g.Boxes),
		Reads:      reads1 - reads0,
		Bytes:      bytes1 - bytes0,
		DurationNS: time.Since(t0).Nanoseconds(),
	}
	res := &Result{Graph: run.g, Errors: run.errs, Reads: run.reads,
		BoxesReused: run.reused, BoxesBuilt: run.built}
	if run.windows != nil {
		rs := make([]target.Range, 0, len(run.windows))
		for w := range run.windows {
			rs = append(rs, target.Range{Addr: w, Size: target.FillWindow})
		}
		res.ReadSet = target.MergeRanges(rs)
	}
	if run.tr != nil {
		root := run.tr.Root()
		root.TagUint("objects", uint64(run.g.Stats.Objects))
		root.TagUint("reads", run.g.Stats.Reads)
		root.TagUint("bytes", run.g.Stats.Bytes)
		res.Trace = in.Obs.FinishTrace(run.tr)
	}
	return res, nil
}

// RunSource parses and runs in one step. The parse is served from a
// process-wide cache (figure programs are static strings run
// once per stop event), so steady-state rounds never re-lex their source.
func (in *Interp) RunSource(name, src string) (*Result, error) {
	prog, err := ParseCached(name, src)
	if err != nil {
		return nil, err
	}
	return in.Run(prog)
}

func plotName(e VExpr) string {
	if v, ok := e.(*VarRef); ok {
		return v.Name
	}
	return "plot"
}

// --- value domain -------------------------------------------------------------

type vkind int

const (
	vNull vkind = iota
	vC          // a C value (scalar, pointer, lvalue, string)
	vBox        // a materialized box
	vCont       // an ordered container of box IDs ("" = NULL slot)
)

type vval struct {
	kind  vkind
	c     expr.Value
	boxID string
	elems []string
}

func (v vval) isNull() bool {
	return v.kind == vNull || (v.kind == vC && !v.c.HasAddr && !v.c.IsStr && v.c.Bits == 0)
}

// --- run state ----------------------------------------------------------------

// memoKey identifies one box instance: definition name + object address.
// A struct key keeps the hot materialize/memo lookups allocation-free (the
// old path formatted a "def@hex" string per box per run).
type memoKey struct {
	def  string
	addr uint64
}

func (k memoKey) String() string {
	return k.def + "@" + strconv.FormatUint(k.addr, 16)
}

type runState struct {
	in    *Interp
	g     *graph.Graph
	memo  map[memoKey]string // def@addr -> box ID (this run)
	errs  []error
	vboxN int         // virtual box counter
	tr    *obs.Tracer // per-run trace (nil = tracing off; all ops nil-safe)

	// Cross-run memoization state (zero-valued unless in.Memo is set).
	rec     *recorder       // read-recording target wrapper
	frames  []*memoFrame    // materialization recording stack
	windows map[uint64]bool // fill-window bases the run's output depends on
	reads   []target.Range  // exact ranges the output depends on (Result.Reads)
	reused  int
	built   int

	// Compiled-engine state (nil/zero on the tree walker's runs).
	exec     *execState // pooled frames, scratch env, reusable run maps
	curFrame *cframe    // frame the pooled env's ${...} resolver walks from

	// Output arenas for the compiled path: current chunks of the view/item
	// backing stores the run's graph ends up owning, plus cumulative counts
	// so the next run of the same program can pre-size exactly. Reset at run
	// start so finished graphs keep their chunks and new runs carve fresh
	// ones.
	viewArena []graph.View
	itemArena []graph.Item
	nviews    int
	nitems    int
}

// allocViews carves n views from the run's chunked view arena — amortized
// well below one allocation per box, and exactly one per run once the
// program's output size is known.
func (r *runState) allocViews(n int) []graph.View {
	r.nviews += n
	if len(r.viewArena)+n > cap(r.viewArena) {
		c := 16
		if n > c {
			c = n
		}
		r.viewArena = make([]graph.View, 0, c)
	}
	base := len(r.viewArena)
	r.viewArena = r.viewArena[:base+n]
	return r.viewArena[base : base+n : base+n]
}

// allocItems carves n items from the run's chunked item arena.
func (r *runState) allocItems(n int) []graph.Item {
	r.nitems += n
	if len(r.itemArena)+n > cap(r.itemArena) {
		c := 64
		if n > c {
			c = n
		}
		r.itemArena = make([]graph.Item, 0, c)
	}
	base := len(r.itemArena)
	r.itemArena = r.itemArena[:base+n]
	return r.itemArena[base : base+n : base+n]
}

// tgt is the target every extraction read goes through: the recording
// wrapper when memoizing, the session chain otherwise.
func (r *runState) tgt() target.Target {
	if r.rec != nil {
		return r.rec
	}
	return r.in.Env.Target
}

// nextVboxN consumes one virtual-box number. The resulting '#N' identity
// depends on global evaluation order, so the frame it lands in can never be
// reused from the memo — taint it.
func (r *runState) nextVboxN() int {
	if n := len(r.frames); n > 0 {
		r.frames[n-1].tainted = true
	}
	n := r.vboxN
	r.vboxN++
	return n
}

// recordRead mirrors one target read into the innermost frame (ordered
// ranges + running content sum of the bytes read), the run-level read list
// and the run-level page set. A failed read (ok false) adds its range but no
// bytes to the sum.
func (r *runState) recordRead(addr uint64, buf []byte, ok bool) {
	rg := target.Range{Addr: addr, Size: uint64(len(buf))}
	if n := len(r.frames); n > 0 {
		fr := r.frames[n-1]
		fr.reads = append(fr.reads, rg)
		if ok {
			fr.sum = target.HashSum(fr.sum, buf)
		}
	}
	r.reads = appendRead(r.reads, rg)
	r.noteWindows(addr, rg.Size)
}

// appendRead appends rg to an ordered read list, extending the last range
// instead when rg starts where it ends. FNV-1a is a byte stream, so the
// list's content sum is the same either way.
func appendRead(reads []target.Range, rg target.Range) []target.Range {
	if n := len(reads); n > 0 && reads[n-1].Addr+reads[n-1].Size == rg.Addr {
		reads[n-1].Size += rg.Size
		return reads
	}
	return append(reads, rg)
}

// noteChild records a direct materialization in the innermost frame.
func (r *runState) noteChild(def string, addr uint64) {
	if n := len(r.frames); n > 0 {
		fr := r.frames[n-1]
		fr.children = append(fr.children, childRef{def: def, addr: addr})
	}
}

// noteWindows adds [addr, addr+size) to the run-level window set.
func (r *runState) noteWindows(addr, size uint64) {
	if r.windows == nil || size == 0 {
		return
	}
	first := addr &^ (target.FillWindow - 1)
	last := (addr + size - 1) &^ (target.FillWindow - 1)
	if last < first { // clamp wraparound at the top of the address space
		last = ^uint64(0) &^ (target.FillWindow - 1)
	}
	for w := first; ; w += target.FillWindow {
		r.windows[w] = true
		if w == last {
			break
		}
	}
}

// noteReused adds a reused entry's ranges to the run-level read list and
// window set, so Reads and ReadSet stay complete even when no read actually
// happened: the memo just verified those bytes.
func (r *runState) noteReused(e *memoEntry) {
	for _, rg := range e.reads {
		r.reads = appendRead(r.reads, rg)
	}
	for _, rg := range e.merged {
		r.noteWindows(rg.Addr, rg.Size)
	}
}

func (r *runState) notef(line int, format string, args ...any) {
	r.errs = append(r.errs, errf(line, format, args...))
}

// toCValue converts a ViewCL value for use inside a C expression.
func (r *runState) toCValue(v vval) (expr.Value, error) {
	switch v.kind {
	case vC:
		return v.c, nil
	case vNull:
		return expr.Value{Type: ctypes.VoidPtr}, nil
	case vBox:
		b, ok := r.g.Get(v.boxID)
		if !ok || b.Addr == 0 {
			return expr.Value{}, fmt.Errorf("viewcl: box %s has no address", v.boxID)
		}
		t, ok := r.in.Env.Types().Lookup(b.TypeName)
		if !ok {
			t = ctypes.Void
		}
		return expr.MakePointer(t, b.Addr), nil
	default:
		return expr.Value{}, fmt.Errorf("viewcl: container value cannot enter a C expression")
	}
}

func cMatch(a, b expr.Value) bool {
	if a.IsStr || b.IsStr {
		return a.Str == b.Str
	}
	// lvalues compare by address, scalars by bits
	av, bv := a.Bits, b.Bits
	if a.HasAddr {
		av = a.Addr
	}
	if b.HasAddr {
		bv = b.Addr
	}
	return av == bv
}

// addrOf extracts the object address from a C value (pointer rvalue or
// lvalue).
func addrOf(v expr.Value) (uint64, bool) {
	if v.HasAddr {
		return v.Addr, true
	}
	if v.Type != nil && (v.Type.IsPointer() || v.Type.IsInteger()) {
		return v.Bits, v.Bits != 0
	}
	return 0, false
}

// materialize creates (or returns the memoized) box instance for def@addr,
// evaluating all of its views — or, when a cross-run Memo holds a verified
// clean copy, reuses it without touching the target.
func (r *runState) materialize(def *boxDef, addr uint64) (string, error) {
	key := memoKey{def: def.name, addr: addr}
	// Record the reference first: an enclosing memoized frame must replay
	// this call on reuse even when the box is already materialized here.
	r.noteChild(def.name, addr)
	if id, ok := r.memo[key]; ok {
		return id, nil
	}
	if len(r.g.Boxes) >= r.in.MaxObjects {
		return "", fmt.Errorf("viewcl: object budget exceeded (%d boxes)", r.in.MaxObjects)
	}
	if r.in.Memo != nil {
		if id, ok, err := r.reuseBox(key); err != nil {
			return "", err
		} else if ok {
			return id, nil
		}
	}
	return r.buildBox(key, def, addr)
}

// reuseBox serves def@addr from the cross-run memo when its recorded bytes
// verify clean. The clone's items reference child IDs by value, so the
// recorded children are re-materialized (usually memo hits themselves) in
// the original order — behind a pre-tainted barrier frame so their refs
// don't leak into whatever frame is currently recording.
func (r *runState) reuseBox(key memoKey) (string, bool, error) {
	e := r.in.Memo.lookup(key)
	if e == nil {
		return "", false, nil
	}
	// The verification is spanned so steady-state rounds attribute their
	// time to memo verification (generation checks, hash re-reads) instead
	// of hiding it in the surrounding box build.
	vsp := r.tr.StartSpan("memo.verify")
	if vsp != nil {
		vsp.Tag("key", key.String())
	}
	ok := r.in.Memo.verify(key, e)
	if !ok {
		vsp.Tag("verdict", "rejected")
	}
	vsp.End()
	if !ok {
		return "", false, nil
	}
	b := e.box.Clone()
	r.memo[key] = b.ID
	r.g.Add(b)
	r.reused++
	r.in.Memo.noteReuse()
	if r.in.Obs != nil {
		r.in.Obs.BoxReuses.Inc()
	}
	r.noteReused(e)
	r.frames = append(r.frames, &memoFrame{tainted: true})
	defer func() { r.frames = r.frames[:len(r.frames)-1] }()
	for _, c := range e.children {
		cdef, ok := r.in.defs[c.def]
		if !ok {
			// The definition set changed under the memo; the reference
			// cannot be satisfied, so the entry is unusable going forward.
			r.in.Memo.reject(key)
			continue
		}
		if _, err := r.materialize(cdef, c.addr); err != nil {
			return "", false, err
		}
	}
	return b.ID, true, nil
}

// buildBox materializes def@addr cold, recording its own-frame reads and
// child references so the memo can replay it next run.
func (r *runState) buildBox(key memoKey, def *boxDef, addr uint64) (string, error) {
	id := graph.BoxID(def.name, addr)
	// The recording frame only exists when a cross-run Memo will consume it;
	// memo-less runs skip the allocation and the read/child bookkeeping.
	var fr *memoFrame
	if r.in.Memo != nil {
		fr = newMemoFrame()
	}
	// Distinct defs over the same address must stay distinct boxes.
	if _, clash := r.g.Get(id); clash {
		id = fmt.Sprintf("%s#%d", id, r.nextVboxN())
		fr.taint() // '#N' identity: never reusable
	}
	r.memo[key] = id
	b := r.g.NewBoxIn(id, def.name, def.ctype.Name, addr)
	r.g.Add(b)
	r.built++
	if r.in.Obs != nil {
		r.in.Obs.BoxBuilds.Inc()
	}
	if fr != nil {
		r.frames = append(r.frames, fr)
		defer func() { r.frames = r.frames[:len(r.frames)-1] }()
	}

	sp := r.tr.StartSpan("box:" + def.name)
	sp.TagHex("addr", addr)
	var reads0 uint64
	if sp != nil {
		reads0, _ = r.tgt().Stats().Snapshot()
	}

	// Batch-fetch the whole object before walking its fields: on
	// snapshot-backed targets this is one transaction instead of one per
	// Text/Link item, which is where the KGDB latency model bleeds.
	target.ReadStruct(r.tgt(), addr, def.ctype)

	def.build(r, def, addr, b, fr)
	if sp != nil {
		reads1, _ := r.tgt().Stats().Snapshot()
		sp.TagUint("reads", reads1-reads0)
	}
	sp.End()
	if r.in.Memo != nil && !fr.tainted {
		r.in.Memo.store(key, b, fr)
	}
	return id, nil
}

func itemName(it ItemDecl) string {
	switch x := it.(type) {
	case *TextItem:
		return x.Name
	case *LinkItem:
		return x.Name
	case *ContainerItem:
		return x.Name
	case *BoxItem:
		return x.Name
	}
	return "?"
}

// textItem, linkItem, containerItem and boxItem turn evaluated values into
// graph items; shared by the compiled engine and the tree walker so both
// emit identical item bytes and identical error conditions.

func (r *runState) textItem(name string, f *Format, cv expr.Value, env *expr.Env) graph.Item {
	text, raw, isNum, isStr := r.in.decorate(cv, f, env)
	return graph.Item{Kind: graph.ItemText, Name: name, Value: text, Raw: raw, IsNum: isNum, IsStr: isStr}
}

func (r *runState) linkItem(name string, v vval) (graph.Item, error) {
	gi := graph.Item{Kind: graph.ItemLink, Name: name}
	switch v.kind {
	case vBox:
		gi.TargetID = v.boxID
		if b, ok := r.g.Get(v.boxID); ok {
			gi.Raw, gi.IsNum = b.Addr, true
		}
	case vNull:
		// NULL link: kept with empty target
	case vC:
		if a, ok := addrOf(v.c); ok && a != 0 {
			return graph.Item{}, fmt.Errorf("link target %#x is not a box; wrap it in a Box constructor", a)
		}
	case vCont:
		return graph.Item{}, fmt.Errorf("link target is a container; use Container")
	}
	return gi, nil
}

func (r *runState) containerItem(name string, v vval) (graph.Item, error) {
	gi := graph.Item{Kind: graph.ItemContainer, Name: name}
	switch v.kind {
	case vCont:
		gi.Elems = v.elems
	case vBox:
		gi.Elems = []string{v.boxID}
	case vNull:
	case vC:
		return graph.Item{}, fmt.Errorf("container value is a scalar")
	}
	return gi, nil
}

func (r *runState) boxItem(name string, v vval) graph.Item {
	gi := graph.Item{Kind: graph.ItemBox, Name: name}
	if v.kind == vBox {
		gi.TargetID = v.boxID
	}
	return gi
}

// plotRoot turns a plotted value into a root box (wrapping containers in a
// virtual box).
func (r *runState) plotRoot(v vval, name string) (string, error) {
	switch v.kind {
	case vBox:
		return v.boxID, nil
	case vCont:
		id := fmt.Sprintf("%s#%d", name, r.nextVboxN())
		b := r.g.NewBoxIn(id, name, "", 0)
		b.AddView(&graph.View{Name: "default", Items: []graph.Item{
			{Kind: graph.ItemContainer, Name: name, Elems: v.elems},
		}})
		r.g.Add(b)
		return id, nil
	case vNull:
		id := fmt.Sprintf("%s#%d", name, r.nextVboxN())
		b := r.g.NewBoxIn(id, name, "", 0)
		b.AddView(&graph.View{Name: "default", Items: []graph.Item{
			{Kind: graph.ItemText, Name: name, Value: "NULL"},
		}})
		r.g.Add(b)
		return id, nil
	default:
		return "", fmt.Errorf("viewcl: cannot plot a raw C value; wrap it in a Box")
	}
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}
