package viewcl

import (
	"fmt"
	"time"

	"visualinux/internal/expr"
	"visualinux/internal/graph"
	"visualinux/internal/target"
)

// The compiled-engine runtime: slot-addressed frames with lazy forcing,
// a pooled per-interpreter execution state (frames, scratch expression
// environment, reusable run maps), and the run driver. The semantics —
// lazy where-bindings forced from the reference site, cycle detection,
// last-definition-wins shadowing — are the tree walker's, re-expressed over
// slots instead of maps so the steady-state round allocates (almost) nothing.

// slotState tracks a lazy binding: unforced, being forced (a second force
// is a circular binding), or done.
type slotState int

const (
	slotUnforced slotState = iota
	slotForcing
	slotDone
)

// cslot is one frame slot: either an already-forced value or the compiled
// code to produce it. A nil-code unforced slot means "not bound yet this
// run" (top-level bindings install their code as their statement executes).
type cslot struct {
	code  cexpr
	val   vval
	state slotState
}

// cframe is a runtime frame: slots laid out per its compile-time layout,
// chained to the lexically enclosing frame.
type cframe struct {
	parent *cframe
	layout *frameLayout
	slots  []cslot
}

// forceAt forces slot idx of frame tf. The binding body runs against ref —
// the frame of the *reference* site — matching the tree walker's force(),
// which evaluates a slot's expression in whatever scope looked it up.
func (r *runState) forceAt(tf *cframe, idx int, ref *cframe) (vval, error) {
	sl := &tf.slots[idx]
	switch sl.state {
	case slotDone:
		return sl.val, nil
	case slotForcing:
		return vval{}, fmt.Errorf("viewcl: circular binding @%s", tf.layout.names[idx])
	}
	sl.state = slotForcing
	v, err := sl.code(r, ref)
	if err != nil {
		sl.state = slotUnforced
		return vval{}, err
	}
	sl.val = v
	sl.state = slotDone
	return v, nil
}

// lookupDynFrame resolves name against the runtime frame chain. Backward
// slot scans give last-definition-wins shadowing; slots whose statement has
// not executed yet (no code, no value) are invisible, exactly as a map-based
// scope would not contain them.
func lookupDynFrame(f *cframe, name string) (*cframe, int, bool) {
	for cur := f; cur != nil; cur = cur.parent {
		names := cur.layout.names
		for i := len(names) - 1; i >= 0; i-- {
			if names[i] != name {
				continue
			}
			sl := &cur.slots[i]
			if sl.state == slotUnforced && sl.code == nil {
				continue
			}
			return cur, i, true
		}
	}
	return nil, 0, false
}

// evalC evaluates a pre-parsed C expression against the pooled environment,
// pointing its ${...} resolver at the current frame for the duration.
func (r *runState) evalC(ex *expr.Expr, f *cframe) (expr.Value, error) {
	saved := r.curFrame
	r.curFrame = f
	v, err := ex.Eval(&r.exec.env)
	r.curFrame = saved
	return v, err
}

// execState is the reusable per-run machinery: the embedded runState (its
// maps survive across runs and are cleared, not reallocated), the scratch
// expression environment whose resolver is built once, the recorder the memo
// path re-points each run, and the frame free list.
type execState struct {
	run  runState
	env  expr.Env
	rec  recorder
	free []*cframe
}

func newExecState() *execState {
	e := &execState{}
	e.run.memo = make(map[memoKey]string)
	// The resolver is permanent: it chases whatever frame the run currently
	// points at, so ${...} escapes see @bindings without a per-scope env.
	e.env.Resolver = func(name string) (expr.Value, bool) {
		r := &e.run
		tf, idx, ok := lookupDynFrame(r.curFrame, name)
		if !ok {
			return expr.Value{}, false
		}
		v, err := r.forceAt(tf, idx, r.curFrame)
		if err != nil {
			return expr.Value{}, false
		}
		cv, err := r.toCValue(v)
		if err != nil {
			return expr.Value{}, false
		}
		return cv, true
	}
	return e
}

// getFrame takes a frame from the free list (or makes one) and shapes it for
// layout: slots zeroed, parent chained.
func (e *execState) getFrame(layout *frameLayout, parent *cframe) *cframe {
	var f *cframe
	if n := len(e.free); n > 0 {
		f = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		f = &cframe{}
	}
	f.parent = parent
	f.layout = layout
	n := len(layout.names)
	if cap(f.slots) < n {
		f.slots = make([]cslot, n)
	} else {
		f.slots = f.slots[:n]
		for i := range f.slots {
			f.slots[i] = cslot{}
		}
	}
	return f
}

func (e *execState) putFrame(f *cframe) {
	f.parent = nil
	e.free = append(e.free, f)
}

// acquireExec hands out the interpreter's pooled execution state; a second
// concurrent Run simply gets a fresh one.
func (in *Interp) acquireExec() *execState {
	in.execMu.Lock()
	e := in.execFree
	in.execFree = nil
	in.execMu.Unlock()
	if e == nil {
		e = newExecState()
	}
	return e
}

// releaseExec drops the per-run references (graph, read list, trace,
// recorder target) so the pooled state never pins a finished run's output,
// then returns the state to the pool. The next run pre-sizes a fresh read
// list from the program's last count.
func (in *Interp) releaseExec(e *execState) {
	r := &e.run
	r.in = nil
	r.g = nil
	r.errs = nil
	r.tr = nil
	r.rec = nil
	r.reads = nil
	r.curFrame = nil
	r.viewArena, r.itemArena = nil, nil
	clear(r.memo)
	e.rec = recorder{}
	e.env.Target = nil
	in.execMu.Lock()
	if in.execFree == nil {
		in.execFree = e
	}
	in.execMu.Unlock()
}

// runCompiled drives a lowered program: install definitions, bind top-level
// slots, evaluate plots through the closure chains. Mirrors the tree
// walker's run statement for statement; Result construction is shared via
// finishRun.
func (in *Interp) runCompiled(cp *compiledProgram) (*Result, error) {
	e := in.acquireExec()
	defer in.releaseExec(e)

	run := &e.run
	run.in = in
	// Pre-size the graph from the program's last run: a figure's box count
	// is stable across stop events, so steady re-extraction skips the map
	// rehashing and order-slice growth of a cold build.
	run.g = graph.NewSized(cp.prog.Source, int(cp.lastBoxes.Load()))
	run.viewArena, run.itemArena = nil, nil
	run.nviews, run.nitems = 0, 0
	if n := int(cp.lastViews.Load()); n > 0 {
		run.viewArena = make([]graph.View, 0, n)
	}
	if n := int(cp.lastItems.Load()); n > 0 {
		run.itemArena = make([]graph.Item, 0, n)
	}
	clear(run.memo)
	run.errs = nil
	run.vboxN = 0
	run.frames = run.frames[:0]
	run.reused, run.built = 0, 0
	run.exec = e
	run.curFrame = nil
	if in.Memo != nil {
		e.rec = recorder{Layer: target.Layer{Target: in.Env.Target}, run: run}
		run.rec = &e.rec
		run.reads = make([]target.Range, 0, int(cp.lastReads.Load()))
		if run.windows == nil {
			run.windows = make(map[uint64]bool)
		} else {
			clear(run.windows)
		}
	} else {
		run.rec = nil
		run.windows = nil
		run.reads = nil
	}
	if in.Obs != nil {
		run.tr = in.Obs.NewTrace("vplot:" + cp.prog.Source)
		if target.AttachTracer(in.Env.Target, run.tr) {
			defer target.AttachTracer(in.Env.Target, nil)
		}
	} else {
		run.tr = nil
	}
	e.env.Target = run.tgt()
	e.env.Funcs = in.Env.Funcs
	e.env.Vars = in.Env.Vars

	reads0, bytes0 := in.Env.Target.Stats().Snapshot()
	t0 := time.Now()

	top := e.getFrame(cp.topLayout, nil)
	for i := range cp.stmts {
		st := &cp.stmts[i]
		switch st.kind {
		case stmtDef:
			in.defs[st.def.name] = st.def
		case stmtBind:
			top.slots[st.bindIdx] = cslot{code: st.bindCode}
		case stmtPlot:
			sp := run.tr.StartSpan("plot:" + st.plotName)
			v, err := st.plotCode(run, top)
			if err != nil {
				return nil, fmt.Errorf("plot: %w", err)
			}
			rootID, err := run.plotRoot(v, st.plotName)
			if err != nil {
				return nil, err
			}
			if run.g.RootID == "" {
				run.g.RootID = rootID
			}
			run.g.Roots = append(run.g.Roots, rootID)
			sp.End()
		}
	}
	e.putFrame(top)
	cp.lastBoxes.Store(int64(len(run.g.Boxes)))
	cp.lastViews.Store(int64(run.nviews))
	cp.lastItems.Store(int64(run.nitems))
	if in.Memo != nil {
		cp.lastReads.Store(int64(len(run.reads)))
	}

	return in.finishRun(run, t0, reads0, bytes0)
}

// runCompiledViews builds a compiled box instance: @this in slot 0, lazy
// where-binding slots, views evaluated through the lowered item closures.
// Error handling matches the tree walker's view loop — item failures become
// "<error>" text, a run note, and a memo taint.
func (r *runState) runCompiledViews(def *boxDef, addr uint64, b *graph.Box, fr *memoFrame) {
	comp := def.comp
	f := r.exec.getFrame(comp.layout, nil)
	f.slots[0] = cslot{val: vval{kind: vC, c: expr.MakePointer(def.ctype, addr)}, state: slotDone}
	for i, bc := range comp.binds {
		f.slots[1+i] = cslot{code: bc}
	}
	// The box's shape is static, so the whole view/item layout comes from
	// the run's chunked arenas — amortized well below one allocation per
	// box. Three-index carving keeps a late append on one view from
	// scribbling over the next view's items.
	vs := r.allocViews(len(comp.views))
	items := r.allocItems(comp.nitems)
	off := 0
	for vi := range comp.views {
		cv := &comp.views[vi]
		vsp := r.tr.StartSpan("view:" + cv.name)
		gv := &vs[vi]
		gv.Name = cv.name
		n := len(cv.items)
		if n > 0 { // keep Items nil for empty views, as append would
			gv.Items = items[off : off+n : off+n]
			off += n
		}
		for ii := range cv.items {
			gi, err := cv.items[ii].eval(r, f)
			if err != nil {
				// Non-fatal: record the issue, keep the item as error text.
				// The error may be transient, so the box is not memoizable.
				r.notef(0, "%s.%s: %v", def.name, cv.items[ii].name, err)
				gi = graph.Item{Kind: graph.ItemText, Name: cv.items[ii].name, Value: "<error>"}
				fr.taint()
			}
			gv.Items[ii] = gi
		}
		b.AddView(gv)
		vsp.End()
	}
	r.exec.putFrame(f)
}
