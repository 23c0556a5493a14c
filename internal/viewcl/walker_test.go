package viewcl

import (
	"fmt"
	"strings"
	"time"

	"visualinux/internal/expr"
	"visualinux/internal/graph"
	"visualinux/internal/target"
)

// The tree-walking evaluator: ViewCL's reference semantics, evaluated
// straight off the AST with map-based lexical scopes. It lives in a test
// file because its one job is to be the differential oracle the compiled
// engine is checked and benchmarked against; production runs only the
// compiled closure chains. Both engines share the run state in interp.go
// (materialize, the memo frames, read recording, the item builders) and the
// container walks in containers.go, so their outputs — including span
// names and error conditions — stay identical.
//
// Tests in package viewcl_test reach it through RunWalker and
// RunSourceWalker. An Interp runs one engine: the definitions a run
// registers build their boxes with that run's engine.

// RunWalker evaluates a full program with the tree walker.
func (in *Interp) RunWalker(prog *Program) (*Result, error) {
	return in.runAST(prog)
}

// RunSourceWalker parses (through the shared parse cache) and runs src
// with the tree walker.
func (in *Interp) RunSourceWalker(name, src string) (*Result, error) {
	prog, err := ParseCached(name, src)
	if err != nil {
		return nil, err
	}
	return in.RunWalker(prog)
}

// walker is one tree-walking run: the shared run state plus the ${...}
// escapes this run has parsed, so the shared AST stays immutable.
type walker struct {
	*runState
	parsed map[*CExprNode]*expr.Expr
}

// runAST is the tree-walking evaluator's run driver.
func (in *Interp) runAST(prog *Program) (*Result, error) {
	run := &runState{
		in:   in,
		g:    graph.New(prog.Source),
		memo: make(map[memoKey]string),
	}
	r := &walker{runState: run, parsed: make(map[*CExprNode]*expr.Expr)}
	if in.Memo != nil {
		run.rec = &recorder{Layer: target.Layer{Target: in.Env.Target}, run: run}
		run.windows = make(map[uint64]bool)
	}
	if in.Obs != nil {
		run.tr = in.Obs.NewTrace("vplot:" + prog.Source)
		// Attach the tracer down the target chain so link transactions
		// appear as leaf spans of whichever box/view span issued them.
		if target.AttachTracer(in.Env.Target, run.tr) {
			defer target.AttachTracer(in.Env.Target, nil)
		}
	}
	reads0, bytes0 := in.Env.Target.Stats().Snapshot()
	t0 := time.Now()

	top := newScope(nil)
	for _, s := range prog.Stmts {
		switch st := s.(type) {
		case *DefineStmt:
			if err := r.compileDef(st); err != nil {
				return nil, err
			}
		case *BindStmt:
			top.define(st.Name, st.Expr)
		case *PlotStmt:
			sp := run.tr.StartSpan("plot:" + plotName(st.Expr))
			v, err := r.eval(st.Expr, top)
			if err != nil {
				return nil, fmt.Errorf("plot: %w", err)
			}
			rootID, err := run.plotRoot(v, plotName(st.Expr))
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

	return in.finishRun(run, t0, reads0, bytes0)
}

// compileDef registers a definition whose boxes build through the walker's
// view loop. A later run that reaches the definition by name builds with a
// walker of its own.
func (r *walker) compileDef(d *DefineStmt) error {
	def, err := r.in.buildDef(d)
	if err != nil {
		return err
	}
	def.build = func(run *runState, def *boxDef, addr uint64, b *graph.Box, fr *memoFrame) {
		w := r
		if w.runState != run {
			w = &walker{runState: run, parsed: make(map[*CExprNode]*expr.Expr)}
		}
		w.views(def, addr, b, fr)
	}
	r.in.defs[d.Name] = def
	return nil
}

// views evaluates every view of a fresh box instance: a scope holding @this
// plus the lazy where-bindings, items evaluated straight off the AST.
func (r *walker) views(def *boxDef, addr uint64, b *graph.Box, fr *memoFrame) {
	sc := newScope(nil)
	sc.defineVal("this", vval{kind: vC, c: expr.MakePointer(def.ctype, addr)})
	for i := range def.where {
		sc.define(def.where[i].Name, def.where[i].Expr)
	}

	for _, rv := range def.views {
		vsp := r.tr.StartSpan("view:" + rv.name)
		gv := &graph.View{Name: rv.name}
		for _, item := range rv.items {
			gi, err := r.evalItem(item, sc)
			if err != nil {
				// Non-fatal: record the issue, keep the item as error
				// text. The error may be transient, so the box is not
				// memoizable.
				r.notef(0, "%s.%s: %v", def.name, itemName(item), err)
				gi = graph.Item{Kind: graph.ItemText, Name: itemName(item), Value: "<error>"}
				fr.taint()
			}
			gv.Items = append(gv.Items, gi)
		}
		b.AddView(gv)
		vsp.End()
	}
}

// --- scopes ------------------------------------------------------------------

type slot struct {
	expr  VExpr
	val   vval
	state slotState
}

type scope struct {
	parent *scope
	vars   map[string]*slot
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent, vars: make(map[string]*slot)}
}

func (s *scope) define(name string, e VExpr) {
	s.vars[name] = &slot{expr: e}
}

func (s *scope) defineVal(name string, v vval) {
	s.vars[name] = &slot{val: v, state: slotDone}
}

func (s *scope) lookup(name string) (*slot, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if sl, ok := cur.vars[name]; ok {
			return sl, true
		}
	}
	return nil, false
}

// force evaluates a scope slot (lazily, with cycle detection).
func (r *walker) force(name string, sl *slot, sc *scope) (vval, error) {
	switch sl.state {
	case slotDone:
		return sl.val, nil
	case slotForcing:
		return vval{}, fmt.Errorf("viewcl: circular binding @%s", name)
	}
	sl.state = slotForcing
	v, err := r.eval(sl.expr, sc)
	if err != nil {
		sl.state = slotUnforced
		return vval{}, err
	}
	sl.val = v
	sl.state = slotDone
	return v, nil
}

// cEnv builds an expression environment whose resolver walks the ViewCL
// scope chain, so ${...} escapes see @bindings.
func (r *walker) cEnv(sc *scope) *expr.Env {
	env := &expr.Env{Target: r.tgt(), Funcs: r.in.Env.Funcs, Vars: r.in.Env.Vars}
	env.Resolver = func(name string) (expr.Value, bool) {
		sl, ok := sc.lookup(name)
		if !ok {
			return expr.Value{}, false
		}
		v, err := r.force(name, sl, sc)
		if err != nil {
			return expr.Value{}, false
		}
		cv, err := r.toCValue(v)
		if err != nil {
			return expr.Value{}, false
		}
		return cv, true
	}
	return env
}

// --- expressions ----------------------------------------------------------------

// eval evaluates a ViewCL expression.
func (r *walker) eval(e VExpr, sc *scope) (vval, error) {
	switch n := e.(type) {
	case *NullNode:
		return vval{kind: vNull}, nil
	case *NumberNode:
		return vval{kind: vC, c: expr.MakeInt(r.in.Env.Types().MustLookup("unsigned long"), n.V)}, nil
	case *StringNode:
		return vval{kind: vC, c: expr.MakeString(n.S)}, nil
	case *VarRef:
		sl, ok := sc.lookup(n.Name)
		if !ok {
			return vval{}, errf(n.Line, "unbound variable @%s", n.Name)
		}
		return r.force(n.Name, sl, sc)
	case *CExprNode:
		ex, ok := r.parsed[n]
		if !ok {
			var err error
			ex, err = expr.Parse(n.Src, r.in.Env.Types())
			if err != nil {
				return vval{}, errf(n.Line, "%v", err)
			}
			r.parsed[n] = ex
		}
		v, err := ex.Eval(r.cEnv(sc))
		if err != nil {
			return vval{}, errf(n.Line, "%v", err)
		}
		return vval{kind: vC, c: v}, nil
	case *SwitchNode:
		return r.evalSwitch(n, sc)
	case *ConstructNode:
		return r.evalConstruct(n, sc)
	case *ContainerNode:
		return r.evalContainer(n, sc)
	case *SelectFromNode:
		return r.evalSelectFrom(n, sc)
	case *InlineBoxNode:
		return r.evalInlineBox(n, sc)
	}
	return vval{}, fmt.Errorf("viewcl: unhandled expression %T", e)
}

func (r *walker) evalSwitch(n *SwitchNode, sc *scope) (vval, error) {
	scrut, err := r.eval(n.Scrutinee, sc)
	if err != nil {
		return vval{}, err
	}
	sv, err := r.toCValue(scrut)
	if err != nil {
		return vval{}, errf(n.Line, "switch scrutinee: %v", err)
	}
	for _, cs := range n.Cases {
		for _, cv := range cs.Values {
			v, err := r.eval(cv, sc)
			if err != nil {
				return vval{}, err
			}
			c, err := r.toCValue(v)
			if err != nil {
				return vval{}, err
			}
			if cMatch(sv, c) {
				return r.eval(cs.Result, sc)
			}
		}
	}
	if n.Otherwise != nil {
		return r.eval(n.Otherwise, sc)
	}
	return vval{kind: vNull}, nil
}

func (r *walker) evalConstruct(n *ConstructNode, sc *scope) (vval, error) {
	def, ok := r.in.defs[n.BoxType]
	if !ok {
		return vval{}, errf(n.Line, "unknown Box type %q", n.BoxType)
	}
	av, err := r.eval(n.Arg, sc)
	if err != nil {
		return vval{}, err
	}
	if av.isNull() {
		return vval{kind: vNull}, nil
	}
	if av.kind == vBox {
		return av, nil // already materialized
	}
	cv, err := r.toCValue(av)
	if err != nil {
		return vval{}, errf(n.Line, "%s(...): %v", n.BoxType, err)
	}
	// Pointer lvalues (container slots, array elements) designate the
	// pointer cell; the box lives at the pointed-to object.
	if cv.HasAddr && cv.Type.IsPointer() {
		cv, err = r.cEnv(sc).Load(cv)
		if err != nil {
			return vval{}, errf(n.Line, "%s(...): %v", n.BoxType, err)
		}
	}
	addr, ok := addrOf(cv)
	if !ok {
		return vval{kind: vNull}, nil
	}
	if n.Anchor != "" {
		dot := indexByte(n.Anchor, '.')
		if dot < 0 {
			return vval{}, errf(n.Line, "anchor %q must be type.member", n.Anchor)
		}
		at, ok := r.in.Env.Types().Lookup(n.Anchor[:dot])
		if !ok {
			return vval{}, errf(n.Line, "anchor: unknown type %q", n.Anchor[:dot])
		}
		f, err := at.ResolvePath(n.Anchor[dot+1:])
		if err != nil {
			return vval{}, errf(n.Line, "anchor: %v", err)
		}
		addr -= f.Offset
	}
	id, err := r.materialize(def, addr)
	if err != nil {
		return vval{}, err
	}
	return vval{kind: vBox, boxID: id}, nil
}

// evalItem evaluates one view item into its graph form.
func (r *walker) evalItem(it ItemDecl, sc *scope) (graph.Item, error) {
	switch x := it.(type) {
	case *TextItem:
		var cv expr.Value
		var err error
		if x.Expr != nil {
			var v vval
			v, err = r.eval(x.Expr, sc)
			if err == nil {
				cv, err = r.toCValue(v)
			}
		} else {
			src := "@this->" + x.Path
			var ex *expr.Expr
			ex, err = expr.Parse(src, r.in.Env.Types())
			if err == nil {
				cv, err = ex.Eval(r.cEnv(sc))
			}
		}
		if err != nil {
			return graph.Item{}, err
		}
		return r.textItem(x.Name, x.Fmt, cv, r.cEnv(sc)), nil

	case *LinkItem:
		v, err := r.eval(x.Target, sc)
		if err != nil {
			return graph.Item{}, err
		}
		return r.linkItem(x.Name, v)

	case *ContainerItem:
		v, err := r.eval(x.Expr, sc)
		if err != nil {
			return graph.Item{}, err
		}
		return r.containerItem(x.Name, v)

	case *BoxItem:
		v, err := r.eval(x.Expr, sc)
		if err != nil {
			return graph.Item{}, err
		}
		return r.boxItem(x.Name, v), nil
	}
	return graph.Item{}, fmt.Errorf("unhandled item %T", it)
}

// evalInlineBox materializes an anonymous virtual box closing over sc.
func (r *walker) evalInlineBox(n *InlineBoxNode, sc *scope) (vval, error) {
	if len(r.g.Boxes) >= r.in.MaxObjects {
		return vval{}, fmt.Errorf("viewcl: object budget exceeded")
	}
	id := fmt.Sprintf("box#%d", r.nextVboxN())
	b := r.g.NewBoxIn(id, "Box", "", 0)
	r.g.Add(b)
	inner := newScope(sc)
	for i := range n.Where {
		inner.define(n.Where[i].Name, n.Where[i].Expr)
	}
	gv := &graph.View{Name: "default"}
	for _, item := range n.Items {
		gi, err := r.evalItem(item, inner)
		if err != nil {
			r.notef(n.Line, "inline box %s: %v", itemName(item), err)
			gi = graph.Item{Kind: graph.ItemText, Name: itemName(item), Value: "<error>"}
		}
		gv.Items = append(gv.Items, gi)
	}
	b.AddView(gv)
	return vval{kind: vBox, boxID: id}, nil
}

// --- containers -----------------------------------------------------------------

func (r *walker) evalContainer(n *ContainerNode, sc *scope) (vval, error) {
	sp := r.tr.StartSpan("container:" + n.Kind)
	defer sp.End()
	hint := r.containerHint(n)
	elems, err := r.iterate(n, sc, hint)
	if err != nil {
		return vval{}, err
	}
	sp.TagUint("elems", uint64(len(elems)))
	r.batchPrefetch(hint, elems)
	var ids []string
	for i, el := range elems {
		isp := r.tr.StartSpan("iter")
		isp.TagUint("index", uint64(i))
		var v vval
		if n.ForEach != nil {
			inner := newScope(sc)
			inner.defineVal(n.ForEach.Var, vval{kind: vC, c: el})
			inner.defineVal(n.ForEach.Var+"_index", vval{kind: vC,
				c: expr.MakeInt(r.in.Env.Types().MustLookup("unsigned long"), uint64(i))})
			for bi := range n.ForEach.Body {
				inner.define(n.ForEach.Body[bi].Name, n.ForEach.Body[bi].Expr)
			}
			v, err = r.eval(n.ForEach.Yield, inner)
			if err != nil {
				isp.End()
				return vval{}, err
			}
		} else {
			// Raw elements become value cells so Container items can show
			// scalar arrays (pivots, fd bitmaps) without a closure.
			v, err = r.cellBox(el, i, r.cEnv(newScope(nil)))
			if err != nil {
				isp.End()
				return vval{}, err
			}
		}
		switch v.kind {
		case vBox:
			ids = append(ids, v.boxID)
		case vNull:
			ids = append(ids, "")
		case vCont:
			ids = append(ids, v.elems...)
		case vC:
			cb, err := r.cellBox(v.c, i, r.cEnv(newScope(nil)))
			if err != nil {
				isp.End()
				return vval{}, err
			}
			ids = append(ids, cb.boxID)
		}
		isp.End()
	}
	return vval{kind: vCont, elems: ids}, nil
}

// containerHint derives the element hint from the forEach yield shape:
// `yield T<ctype.member.path>(@var)` names the embedding C type (through T's
// Box definition) and the node's offset inside it (through the anchor path).
// Any other yield shape opts out — the walk cannot know the element extent.
func (r *walker) containerHint(n *ContainerNode) elemHint {
	if !r.in.PrefetchHints || n.ForEach == nil {
		return elemHint{}
	}
	yield, ok := n.ForEach.Yield.(*ConstructNode)
	if !ok {
		return elemHint{}
	}
	arg, ok := yield.Arg.(*VarRef)
	if !ok || arg.Name != n.ForEach.Var {
		return elemHint{}
	}
	def, ok := r.in.defs[yield.BoxType]
	if !ok || def.ctype == nil || def.ctype.Size() == 0 {
		return elemHint{}
	}
	h := elemHint{size: def.ctype.Size(), on: true}
	if yield.Anchor != "" {
		dot := strings.IndexByte(yield.Anchor, '.')
		if dot < 0 {
			return elemHint{}
		}
		at, ok := r.in.Env.Types().Lookup(yield.Anchor[:dot])
		if !ok {
			return elemHint{}
		}
		f, err := at.ResolvePath(yield.Anchor[dot+1:])
		if err != nil {
			return elemHint{}
		}
		h.off = f.Offset
		h.size = at.Size()
	}
	return h
}

// iterate dispatches on the container kind and returns the element values.
func (r *walker) iterate(n *ContainerNode, sc *scope, hint elemHint) ([]expr.Value, error) {
	if len(n.Args) == 0 {
		return nil, errf(n.Line, "%s(...) wants an argument", n.Kind)
	}
	args := make([]expr.Value, len(n.Args))
	for i, a := range n.Args {
		v, err := r.eval(a, sc)
		if err != nil {
			return nil, err
		}
		cv, err := r.toCValue(v)
		if err != nil {
			return nil, errf(n.Line, "%s arg %d: %v", n.Kind, i, err)
		}
		args[i] = cv
	}
	return r.iterateKind(n.Kind, args, n.Line, hint)
}

// evalSelectFrom implements Array.selectFrom(container, Type).
func (r *walker) evalSelectFrom(n *SelectFromNode, sc *scope) (vval, error) {
	src, err := r.eval(n.Container, sc)
	if err != nil {
		return vval{}, err
	}
	return r.selectFromVal(src, n.BoxType, n.Line)
}
