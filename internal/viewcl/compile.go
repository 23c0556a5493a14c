package viewcl

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"visualinux/internal/ctypes"
	"visualinux/internal/expr"
	"visualinux/internal/graph"
)

// The ViewCL compiler. Programs are lowered once into chains of closures
// (`cexpr` / `citem`) over slot-addressed frames, so the steady-state path
// never touches the AST again: variable references resolve to (depth, slot)
// pairs computed here, ${...} escapes are parsed exactly once, construct
// anchors and container element hints are resolved to offsets at lowering
// time, and `Text path` items collapse to a precomputed (offset, field) load
// whenever the path stays inside the defining struct. This is the only
// engine production runs. The tree-walking evaluator that defines ViewCL's
// reference semantics lives in walker_test.go as the differential oracle;
// it shares this engine's runState, materialize/memo machinery, item
// builders and container iterators, so the tests can demand identical
// outputs — including span names and error conditions.

// cexpr is one compiled ViewCL expression: evaluated against the run and the
// current frame.
type cexpr func(r *runState, f *cframe) (vval, error)

// citem is one compiled view item.
type citem struct {
	name string
	eval func(r *runState, f *cframe) (graph.Item, error)
}

// frameLayout is the compile-time shape of one lexical frame: slot names in
// definition order. Lookups scan backwards so a redefined name shadows the
// earlier slot, matching the interpreter's map-overwrite semantics.
type frameLayout struct {
	names []string
}

// compiledDef is the executable form of a box definition's views: slot 0 of
// the instance frame is @this, followed by one lazy slot per where-binding.
type compiledDef struct {
	layout *frameLayout
	binds  []cexpr // where-binding bodies, index-aligned with layout slot 1+
	views  []compiledView
	nitems int // total items across views — sizes the per-box item slab
}

type compiledView struct {
	name  string
	items []citem
}

// cForEach is a compiled |v| { bindings; yield } closure: the element frame
// holds [var, var_index, bindings...].
type cForEach struct {
	layout *frameLayout
	binds  []cexpr
	yield  cexpr
}

const (
	stmtDef = iota
	stmtBind
	stmtPlot
)

type cstmt struct {
	kind     int
	def      *boxDef // stmtDef: definition to (re)install
	bindIdx  int     // stmtBind: top-frame slot
	bindCode cexpr
	plotName string // stmtPlot
	plotCode cexpr
}

// compiledProgram is a fully lowered program, cached per interpreter.
type compiledProgram struct {
	prog      *Program
	topLayout *frameLayout
	stmts     []cstmt

	// lastBoxes/lastViews/lastItems/lastReads remember the previous run's
	// output sizes so the next run pre-sizes its graph, output arenas and
	// read list exactly. Atomic: concurrent runs may share the program.
	lastBoxes atomic.Int64
	lastViews atomic.Int64
	lastItems atomic.Int64
	lastReads atomic.Int64
}

func (in *Interp) lower(prog *Program) (*compiledProgram, error) {
	c := &compiler{in: in, local: make(map[string]*boxDef)}
	cp := &compiledProgram{prog: prog, topLayout: &frameLayout{}}

	// Phase 1: resolve every definition so constructs and element hints can
	// bind statically regardless of declaration order within the program.
	byStmt := make(map[*DefineStmt]*boxDef)
	for _, s := range prog.Stmts {
		if d, ok := s.(*DefineStmt); ok {
			def, err := in.buildDef(d)
			if err != nil {
				return nil, err
			}
			byStmt[d] = def
			c.local[def.name] = def
		}
	}
	// Phase 2: lower definition bodies (views, where-bindings, items).
	for _, s := range prog.Stmts {
		if d, ok := s.(*DefineStmt); ok {
			c.compileDefBody(byStmt[d])
		}
	}
	// Phase 3: top-level statements, in program order. The top frame's
	// layout grows as bindings appear, so a plot compiled here only sees the
	// names bound before it — mirroring the interpreter's statement loop.
	c.stack = []*frameLayout{cp.topLayout}
	for _, s := range prog.Stmts {
		switch st := s.(type) {
		case *DefineStmt:
			cp.stmts = append(cp.stmts, cstmt{kind: stmtDef, def: byStmt[st]})
		case *BindStmt:
			idx := len(cp.topLayout.names)
			cp.topLayout.names = append(cp.topLayout.names, st.Name)
			cp.stmts = append(cp.stmts,
				cstmt{kind: stmtBind, bindIdx: idx, bindCode: c.lazyExpr(st.Expr)})
		case *PlotStmt:
			cp.stmts = append(cp.stmts,
				cstmt{kind: stmtPlot, plotName: plotName(st.Expr), plotCode: c.expr(st.Expr)})
		}
	}
	return cp, nil
}

// --- compiler ----------------------------------------------------------------

type compiler struct {
	in    *Interp
	local map[string]*boxDef // definitions of the program being lowered
	stack []*frameLayout     // lexical frame chain, innermost last
	// lazy > 0 while lowering a binding body. Binding bodies are forced from
	// the *referencing* scope (which may shadow names the defining scope
	// sees), so their variable references must resolve dynamically at force
	// time, exactly as the interpreter's force() does.
	lazy  int
	ulong *ctypes.Type
	// curThis is the definition whose instance frame carries @this in slot 0
	// while its views are being lowered (nil when @this is shadowed by a
	// where-binding, or outside a definition body). It anchors the static
	// member-chain fast path for ${@this->...} escapes.
	curThis *boxDef
}

func (c *compiler) ulongType() *ctypes.Type {
	if c.ulong == nil {
		c.ulong = c.in.Env.Types().MustLookup("unsigned long")
	}
	return c.ulong
}

// resolve finds name in the compile-time lexical chain as a (depth, slot)
// pair. Backward scans implement shadowing by redefinition.
func (c *compiler) resolve(name string) (depth, idx int, ok bool) {
	for d := len(c.stack) - 1; d >= 0; d-- {
		l := c.stack[d]
		for i := len(l.names) - 1; i >= 0; i-- {
			if l.names[i] == name {
				return len(c.stack) - 1 - d, i, true
			}
		}
	}
	return 0, 0, false
}

func constExpr(v vval) cexpr {
	return func(*runState, *cframe) (vval, error) { return v, nil }
}

func errExpr(err error) cexpr {
	return func(*runState, *cframe) (vval, error) { return vval{}, err }
}

func (c *compiler) lazyExpr(e VExpr) cexpr {
	c.lazy++
	code := c.expr(e)
	c.lazy--
	return code
}

func (c *compiler) expr(e VExpr) cexpr {
	switch n := e.(type) {
	case *NullNode:
		return constExpr(vval{kind: vNull})
	case *NumberNode:
		return constExpr(vval{kind: vC, c: expr.MakeInt(c.ulongType(), n.V)})
	case *StringNode:
		return constExpr(vval{kind: vC, c: expr.MakeString(n.S)})
	case *VarRef:
		return c.varRef(n)
	case *CExprNode:
		return c.cExpr(n)
	case *SwitchNode:
		return c.switchExpr(n)
	case *ConstructNode:
		return c.construct(n)
	case *ContainerNode:
		return c.container(n)
	case *SelectFromNode:
		return c.selectFrom(n)
	case *InlineBoxNode:
		return c.inlineBox(n)
	}
	return errExpr(fmt.Errorf("viewcl: unhandled expression %T", e))
}

func (c *compiler) varRef(n *VarRef) cexpr {
	if c.lazy == 0 {
		depth, idx, ok := c.resolve(n.Name)
		if !ok {
			return errExpr(errf(n.Line, "unbound variable @%s", n.Name))
		}
		return func(r *runState, f *cframe) (vval, error) {
			tf := f
			for d := 0; d < depth; d++ {
				tf = tf.parent
			}
			return r.forceAt(tf, idx, f)
		}
	}
	name, line := n.Name, n.Line
	return func(r *runState, f *cframe) (vval, error) {
		tf, idx, ok := lookupDynFrame(f, name)
		if !ok {
			return vval{}, errf(line, "unbound variable @%s", name)
		}
		return r.forceAt(tf, idx, f)
	}
}

func (c *compiler) cExpr(n *CExprNode) cexpr {
	if code, ok := c.chainCExpr(n); ok {
		return code
	}
	ex, err := expr.Parse(n.Src, c.in.Env.Types())
	if err != nil {
		// The interpreter surfaces parse errors at evaluation time; defer.
		return errExpr(errf(n.Line, "%v", err))
	}
	// Literal escapes — ${true}, ${0}, ${"s"} — evaluate identically in every
	// environment; fold them to a constant instead of walking the AST per box.
	if v, isConst := ex.ConstValue(c.in.Env.Types()); isConst {
		return constExpr(vval{kind: vC, c: v})
	}
	line := n.Line
	return func(r *runState, f *cframe) (vval, error) {
		v, err := r.evalC(ex, f)
		if err != nil {
			return vval{}, errf(line, "%v", err)
		}
		return vval{kind: vC, c: v}, nil
	}
}

// chainCExpr lowers a ${...} escape that is a plain "@this->..." member
// chain inside a definition body — the dominant shape of Link targets,
// construct arguments, and switch scrutinees — into a static hop chain.
// @this must resolve to slot 0 of the instance frame at a compile-time
// depth (the same premise the slot-addressed VarRef lowering rests on);
// lazy binding bodies resolve dynamically and are excluded, as is any
// chain the resolver cannot prove identical to the interpreter's walk.
// Error text carries the same source wrap and line tag as the generic
// route, so failures stay byte-identical.
func (c *compiler) chainCExpr(n *CExprNode) (cexpr, bool) {
	if c.curThis == nil || c.lazy != 0 {
		return nil, false
	}
	body, addrOf := strings.CutPrefix(n.Src, "&")
	rest, hasThis := strings.CutPrefix(body, "@this->")
	if !hasThis {
		return nil, false
	}
	depth, idx, ok := c.resolve("this")
	if !ok || idx != 0 || depth != len(c.stack)-1 {
		return nil, false
	}
	steps, firstSeg, ok := resolvePathChain(c.curThis.ctype, rest)
	if !ok {
		return nil, false
	}
	last := &steps[len(steps)-1]
	if addrOf && last.field.IsBitfield() {
		// '&' on a bitfield is the generic route's "'&' on non-lvalue" error.
		return nil, false
	}
	src, line := n.Src, n.Line
	return func(r *runState, f *cframe) (vval, error) {
		tf := f
		for d := 0; d < depth; d++ {
			tf = tf.parent
		}
		addr := tf.slots[0].val.c.Bits // @this pointer, pre-forced in slot 0
		if addr == 0 {
			return vval{}, errf(line, "expr: NULL dereference accessing %q (in %q)", firstSeg, src)
		}
		env := &r.exec.env
		var cv expr.Value
		for si := range steps {
			st := &steps[si]
			if addrOf && st.next == nil {
				// Final hop under '&': no load — the member lvalue's address
				// becomes a pointer rvalue, exactly as unaryNode does.
				cv = expr.MakePointer(st.field.Type, addr+st.off+st.field.Offset)
				break
			}
			var err error
			cv, err = env.LoadField(expr.MakeLValue(st.parent, addr+st.off), st.field)
			if err == nil {
				// Load fetches the scalar: the final rvalue on the last
				// step, the pointer word on a crossing.
				cv, err = env.Load(cv)
			}
			if err != nil {
				return vval{}, errf(line, "%v (in %q)", err, src)
			}
			if st.next != nil {
				if cv.Bits == 0 {
					return vval{}, errf(line, "expr: NULL dereference accessing %q (in %q)", st.name, src)
				}
				addr = cv.Bits
			}
		}
		return vval{kind: vC, c: cv}, nil
	}, true
}

func (c *compiler) switchExpr(n *SwitchNode) cexpr {
	type ccase struct {
		vals   []cexpr
		result cexpr
	}
	scrut := c.expr(n.Scrutinee)
	cases := make([]ccase, len(n.Cases))
	for i, cs := range n.Cases {
		for _, cv := range cs.Values {
			cases[i].vals = append(cases[i].vals, c.expr(cv))
		}
		cases[i].result = c.expr(cs.Result)
	}
	var other cexpr
	if n.Otherwise != nil {
		other = c.expr(n.Otherwise)
	}
	line := n.Line
	return func(r *runState, f *cframe) (vval, error) {
		scv, err := scrut(r, f)
		if err != nil {
			return vval{}, err
		}
		sv, err := r.toCValue(scv)
		if err != nil {
			return vval{}, errf(line, "switch scrutinee: %v", err)
		}
		for i := range cases {
			for _, vc := range cases[i].vals {
				v, err := vc(r, f)
				if err != nil {
					return vval{}, err
				}
				cvv, err := r.toCValue(v)
				if err != nil {
					return vval{}, err
				}
				if cMatch(sv, cvv) {
					return cases[i].result(r, f)
				}
			}
		}
		if other != nil {
			return other(r, f)
		}
		return vval{kind: vNull}, nil
	}
}

func (c *compiler) construct(n *ConstructNode) cexpr {
	arg := c.expr(n.Arg)
	// Same-program definitions bind statically (the run installs exactly
	// these defs before any plot executes); external names stay dynamic so a
	// later redefinition behaves as the interpreter would.
	staticDef := c.local[n.BoxType]
	var anchorOff uint64
	var anchorErr error
	if n.Anchor != "" {
		anchorOff, anchorErr = c.resolveAnchor(n.Anchor, n.Line)
	}
	boxType, line, hasAnchor := n.BoxType, n.Line, n.Anchor != ""
	return func(r *runState, f *cframe) (vval, error) {
		def := staticDef
		if def == nil {
			var ok bool
			def, ok = r.in.defs[boxType]
			if !ok {
				return vval{}, errf(line, "unknown Box type %q", boxType)
			}
		}
		av, err := arg(r, f)
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
			return vval{}, errf(line, "%s(...): %v", boxType, err)
		}
		// Pointer lvalues (container slots, array elements) designate the
		// pointer cell; the box lives at the pointed-to object.
		if cv.HasAddr && cv.Type.IsPointer() {
			cv, err = r.exec.env.Load(cv)
			if err != nil {
				return vval{}, errf(line, "%s(...): %v", boxType, err)
			}
		}
		addr, ok := addrOf(cv)
		if !ok {
			return vval{kind: vNull}, nil
		}
		if hasAnchor {
			if anchorErr != nil {
				return vval{}, anchorErr
			}
			addr -= anchorOff
		}
		id, err := r.materialize(def, addr)
		if err != nil {
			return vval{}, err
		}
		return vval{kind: vBox, boxID: id}, nil
	}
}

// resolveAnchor resolves a "type.member" container_of anchor to its offset at
// lowering time. Failures carry the interpreter's evaluation-time wording and
// are surfaced only if the construct actually executes.
func (c *compiler) resolveAnchor(anchor string, line int) (uint64, error) {
	dot := indexByte(anchor, '.')
	if dot < 0 {
		return 0, errf(line, "anchor %q must be type.member", anchor)
	}
	at, ok := c.in.Env.Types().Lookup(anchor[:dot])
	if !ok {
		return 0, errf(line, "anchor: unknown type %q", anchor[:dot])
	}
	f, err := at.ResolvePath(anchor[dot+1:])
	if err != nil {
		return 0, errf(line, "anchor: %v", err)
	}
	return f.Offset, nil
}

func (c *compiler) container(n *ContainerNode) cexpr {
	kind, line := n.Kind, n.Line
	if len(n.Args) == 0 {
		cerr := errf(line, "%s(...) wants an argument", kind)
		return func(r *runState, f *cframe) (vval, error) {
			// The interpreter opens the container span before noticing the
			// missing argument; keep the trace shape identical.
			sp := r.tr.StartSpan("container:" + kind)
			sp.End()
			return vval{}, cerr
		}
	}
	args := make([]cexpr, len(n.Args))
	for i, a := range n.Args {
		args[i] = c.expr(a)
	}
	hint := c.staticHint(n)
	var fe *cForEach
	if n.ForEach != nil {
		fe = c.forEach(n.ForEach)
	}
	ulong := c.ulongType()
	return func(r *runState, f *cframe) (vval, error) {
		sp := r.tr.StartSpan("container:" + kind)
		defer sp.End()
		argv := make([]expr.Value, len(args))
		for i, ac := range args {
			v, err := ac(r, f)
			if err != nil {
				return vval{}, err
			}
			cv, err := r.toCValue(v)
			if err != nil {
				return vval{}, errf(line, "%s arg %d: %v", kind, i, err)
			}
			argv[i] = cv
		}
		h := hint
		if !r.in.PrefetchHints {
			h = elemHint{}
		}
		elems, err := r.iterateKind(kind, argv, line, h)
		if err != nil {
			return vval{}, err
		}
		sp.TagUint("elems", uint64(len(elems)))
		r.batchPrefetch(h, elems)
		var ids []string
		if len(elems) > 0 {
			// Preallocate for the common one-box-per-element shape; vCont
			// splicing can still grow past the hint.
			ids = make([]string, 0, len(elems))
		}
		for i, el := range elems {
			isp := r.tr.StartSpan("iter")
			isp.TagUint("index", uint64(i))
			var v vval
			if fe != nil {
				fr := r.exec.getFrame(fe.layout, f)
				fr.slots[0] = cslot{val: vval{kind: vC, c: el}, state: slotDone}
				fr.slots[1] = cslot{val: vval{kind: vC, c: expr.MakeInt(ulong, uint64(i))}, state: slotDone}
				for bi, bc := range fe.binds {
					fr.slots[2+bi] = cslot{code: bc}
				}
				v, err = fe.yield(r, fr)
				r.exec.putFrame(fr)
				if err != nil {
					isp.End()
					return vval{}, err
				}
			} else {
				// Raw elements become value cells so Container items can
				// show scalar arrays without a closure.
				v, err = r.cellBox(el, i, &r.exec.env)
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
				cb, err := r.cellBox(v.c, i, &r.exec.env)
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
}

func (c *compiler) forEach(fe *ForEachClause) *cForEach {
	layout := &frameLayout{names: make([]string, 0, 2+len(fe.Body))}
	layout.names = append(layout.names, fe.Var, fe.Var+"_index")
	for i := range fe.Body {
		layout.names = append(layout.names, fe.Body[i].Name)
	}
	cf := &cForEach{layout: layout}
	c.stack = append(c.stack, layout)
	for i := range fe.Body {
		cf.binds = append(cf.binds, c.lazyExpr(fe.Body[i].Expr))
	}
	cf.yield = c.expr(fe.Yield)
	c.stack = c.stack[:len(c.stack)-1]
	return cf
}

// staticHint is containerHint computed at lowering time: the PrefetchHints
// toggle is re-checked per run, but the yield-shape analysis and offset
// resolution happen once here.
func (c *compiler) staticHint(n *ContainerNode) elemHint {
	if n.ForEach == nil {
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
	def := c.local[yield.BoxType]
	if def == nil {
		def = c.in.defs[yield.BoxType]
	}
	if def == nil || def.ctype == nil || def.ctype.Size() == 0 {
		return elemHint{}
	}
	h := elemHint{size: def.ctype.Size(), on: true}
	if yield.Anchor != "" {
		dot := strings.IndexByte(yield.Anchor, '.')
		if dot < 0 {
			return elemHint{}
		}
		at, ok := c.in.Env.Types().Lookup(yield.Anchor[:dot])
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

func (c *compiler) selectFrom(n *SelectFromNode) cexpr {
	src := c.expr(n.Container)
	boxType, line := n.BoxType, n.Line
	return func(r *runState, f *cframe) (vval, error) {
		v, err := src(r, f)
		if err != nil {
			return vval{}, err
		}
		return r.selectFromVal(v, boxType, line)
	}
}

func (c *compiler) inlineBox(n *InlineBoxNode) cexpr {
	layout := &frameLayout{}
	for i := range n.Where {
		layout.names = append(layout.names, n.Where[i].Name)
	}
	c.stack = append(c.stack, layout)
	binds := make([]cexpr, len(n.Where))
	for i := range n.Where {
		binds[i] = c.lazyExpr(n.Where[i].Expr)
	}
	items := make([]citem, len(n.Items))
	for i, it := range n.Items {
		items[i] = c.item(it, nil)
	}
	c.stack = c.stack[:len(c.stack)-1]
	line := n.Line
	return func(r *runState, f *cframe) (vval, error) {
		if len(r.g.Boxes) >= r.in.MaxObjects {
			return vval{}, fmt.Errorf("viewcl: object budget exceeded")
		}
		id := "box#" + strconv.Itoa(r.nextVboxN())
		b := r.g.NewBoxIn(id, "Box", "", 0)
		r.g.Add(b)
		fr := r.exec.getFrame(layout, f)
		for i, bc := range binds {
			fr.slots[i] = cslot{code: bc}
		}
		vs := r.allocViews(1)
		gv := &vs[0]
		gv.Name = "default"
		if len(items) > 0 { // keep Items nil for empty boxes, as append would
			gv.Items = r.allocItems(len(items))
		}
		for i := range items {
			gi, err := items[i].eval(r, fr)
			if err != nil {
				r.notef(line, "inline box %s: %v", items[i].name, err)
				gi = graph.Item{Kind: graph.ItemText, Name: items[i].name, Value: "<error>"}
			}
			gv.Items[i] = gi
		}
		r.exec.putFrame(fr)
		b.AddView(gv)
		return vval{kind: vBox, boxID: id}, nil
	}
}

// compileDefBody lowers a definition's where-bindings and views. Instance
// frames are roots (the interpreter's instance scope has no parent), so the
// lexical chain here is just the instance layout.
func (c *compiler) compileDefBody(def *boxDef) {
	layout := &frameLayout{names: make([]string, 0, 1+len(def.where))}
	layout.names = append(layout.names, "this")
	fastThis := def
	for i := range def.where {
		layout.names = append(layout.names, def.where[i].Name)
		if def.where[i].Name == "this" {
			// A where-binding shadowing @this defeats the slot-0 fast path.
			fastThis = nil
		}
	}
	comp := &compiledDef{layout: layout}
	saved := c.stack
	c.stack = []*frameLayout{layout}
	for i := range def.where {
		comp.binds = append(comp.binds, c.lazyExpr(def.where[i].Expr))
	}
	c.curThis = fastThis
	for _, rv := range def.views {
		cv := compiledView{name: rv.name}
		for _, item := range rv.items {
			cv.items = append(cv.items, c.item(item, fastThis))
		}
		comp.views = append(comp.views, cv)
		comp.nitems += len(cv.items)
	}
	c.curThis = nil
	c.stack = saved
	def.comp = comp
	def.build = (*runState).runCompiledViews
}

// item lowers one view item. def is non-nil only when lowering a definition
// view whose frame is known to carry @this in slot 0 (enables the Text-path
// fast path); inline-box items pass nil and resolve @this dynamically.
func (c *compiler) item(it ItemDecl, def *boxDef) citem {
	switch x := it.(type) {
	case *TextItem:
		return c.textItem(x, def)
	case *LinkItem:
		code := c.expr(x.Target)
		name := x.Name
		return citem{name: name, eval: func(r *runState, f *cframe) (graph.Item, error) {
			v, err := code(r, f)
			if err != nil {
				return graph.Item{}, err
			}
			return r.linkItem(name, v)
		}}
	case *ContainerItem:
		code := c.expr(x.Expr)
		name := x.Name
		return citem{name: name, eval: func(r *runState, f *cframe) (graph.Item, error) {
			v, err := code(r, f)
			if err != nil {
				return graph.Item{}, err
			}
			return r.containerItem(name, v)
		}}
	case *BoxItem:
		code := c.expr(x.Expr)
		name := x.Name
		return citem{name: name, eval: func(r *runState, f *cframe) (graph.Item, error) {
			v, err := code(r, f)
			if err != nil {
				return graph.Item{}, err
			}
			return r.boxItem(name, v), nil
		}}
	}
	err := fmt.Errorf("unhandled item %T", it)
	return citem{name: itemName(it), eval: func(*runState, *cframe) (graph.Item, error) {
		return graph.Item{}, err
	}}
}

func (c *compiler) textItem(x *TextItem, def *boxDef) citem {
	name, fmtD := x.Name, x.Fmt
	if x.Expr != nil {
		// ${...} and colon-path Text values that are plain "@this->..."
		// member chains compile to static hop chains: the resolver, AST
		// dispatch, and per-hop member lookup all happen here, at lowering
		// time. The interpreter wraps CExprNode failures in a line-tagged
		// error, so the chain must too (lineWrap).
		if def != nil {
			if cn, isC := x.Expr.(*CExprNode); isC {
				if rest, hasThis := strings.CutPrefix(cn.Src, "@this->"); hasThis {
					if steps, firstSeg, ok := resolvePathChain(def.ctype, rest); ok {
						return c.chainItem(name, fmtD, steps, firstSeg, cn.Src, cn.Line, true)
					}
				}
			}
		}
		code := c.expr(x.Expr)
		return citem{name: name, eval: func(r *runState, f *cframe) (graph.Item, error) {
			v, err := code(r, f)
			if err != nil {
				return graph.Item{}, err
			}
			cv, err := r.toCValue(v)
			if err != nil {
				return graph.Item{}, err
			}
			return r.textItem(name, fmtD, cv, &r.exec.env), nil
		}}
	}
	src := "@this->" + x.Path
	if def != nil {
		// Bare-path failures carry only the expression-source wrap, exactly
		// as Expr.Eval reports them on the interpreted path.
		if steps, firstSeg, ok := resolvePathChain(def.ctype, x.Path); ok {
			return c.chainItem(name, fmtD, steps, firstSeg, src, 0, false)
		}
	}
	// Generic path: parse "@this->path" once here (the interpreter parses it
	// per box per run); @this resolves through the frame resolver, so
	// inline-box items see the enclosing instance exactly as before.
	ex, perr := expr.Parse(src, c.in.Env.Types())
	if perr != nil {
		return citem{name: name, eval: func(*runState, *cframe) (graph.Item, error) {
			return graph.Item{}, perr
		}}
	}
	return citem{name: name, eval: func(r *runState, f *cframe) (graph.Item, error) {
		cv, err := r.evalC(ex, f)
		if err != nil {
			return graph.Item{}, err
		}
		return r.textItem(name, fmtD, cv, &r.exec.env), nil
	}}
}

// chainItem lowers a statically-resolved Text member chain into a closure
// that walks raw (parent type, offset) hops — no resolver, no AST, no member
// lookup at runtime. Error text matches the generic path byte for byte:
// per-hop NULL checks name the segment being accessed, every failure is
// wrapped with the expression source, and lineWrap adds the CExprNode
// line-tagged layer the interpreter applies on that route.
func (c *compiler) chainItem(name string, fmtD *Format, steps []pathStep, firstSeg, src string, line int, lineWrap bool) citem {
	fail := func(err error) error {
		if lineWrap {
			return errf(line, "%v", err)
		}
		return err
	}
	return citem{name: name, eval: func(r *runState, f *cframe) (graph.Item, error) {
		addr := f.slots[0].val.c.Bits // @this pointer, slot 0
		if addr == 0 {
			return graph.Item{}, fail(fmt.Errorf("expr: NULL dereference accessing %q (in %q)", firstSeg, src))
		}
		env := &r.exec.env
		var cv expr.Value
		for si := range steps {
			st := &steps[si]
			var err error
			cv, err = env.LoadField(expr.MakeLValue(st.parent, addr+st.off), st.field)
			if err == nil {
				// Load fetches the scalar: the final rvalue on the last
				// step, the pointer word on a crossing.
				cv, err = env.Load(cv)
			}
			if err != nil {
				return graph.Item{}, fail(fmt.Errorf("%v (in %q)", err, src))
			}
			if st.next != nil {
				if cv.Bits == 0 {
					return graph.Item{}, fail(fmt.Errorf("expr: NULL dereference accessing %q (in %q)", st.name, src))
				}
				addr = cv.Bits
			}
		}
		return r.textItem(name, fmtD, cv, env), nil
	}}
}

// pathStep is one compiled hop of a Text member chain: load field (found in
// the aggregate of type parent at object base + off). A step with next != nil
// crosses a pointer — the loaded word is NULL-checked and becomes the base
// address of the next step, anchored at the pointee type next.
type pathStep struct {
	parent *ctypes.Type
	off    uint64
	field  ctypes.Field
	next   *ctypes.Type // pointee aggregate when this step crosses a pointer
	name   string       // following segment, for the NULL-dereference message
}

// splitPathSegs tokenizes a member chain like "mm->pgd" or "sem_perm.id"
// into segments. arrows[i] records whether segment i is reached via '->';
// arrows[0] stands for the implicit "@this->" hop. Anything that is not a
// plain ident chain (indexing, casts, whitespace) fails the split and falls
// back to the generic expression path.
func splitPathSegs(path string) (segs []string, arrows []bool, ok bool) {
	arrows = append(arrows, true) // the "@this->" hop
	rest := path
	for {
		end := 0
		for end < len(rest) && rest[end] != '.' && rest[end] != '-' {
			end++
		}
		seg := rest[:end]
		if !isIdentName(seg) {
			return nil, nil, false
		}
		segs = append(segs, seg)
		if end == len(rest) {
			return segs, arrows, true
		}
		switch {
		case rest[end] == '.':
			arrows = append(arrows, false)
			rest = rest[end+1:]
		case strings.HasPrefix(rest[end:], "->"):
			arrows = append(arrows, true)
			rest = rest[end+2:]
		default:
			return nil, nil, false
		}
	}
}

// resolvePathChain statically resolves a member chain against ct, mirroring
// memberNode semantics hop for hop: '.' between non-pointer aggregates folds
// into a compile-time offset, while a pointer field — whether written '->'
// or auto-dereferenced '.' — becomes a crossing step. Any hop that cannot be
// proven to behave identically at runtime (unknown member, bitfield
// intermediate, '->' through a non-pointer, pointee without members) refuses,
// and the caller falls back to the generic expression path, which reproduces
// the interpreter's behavior — including its error messages — exactly. The
// final field may be a bitfield or pointer; LoadField and Load handle both.
func resolvePathChain(ct *ctypes.Type, path string) (steps []pathStep, firstSeg string, ok bool) {
	if ct == nil {
		return nil, "", false
	}
	segs, arrows, ok := splitPathSegs(path)
	if !ok {
		return nil, "", false
	}
	cur := ct
	var off uint64
	for i, seg := range segs {
		st := cur.Strip()
		if st == nil || (st.Kind != ctypes.KindStruct && st.Kind != ctypes.KindUnion) {
			return nil, "", false
		}
		f, found := cur.FieldByName(seg)
		if !found {
			return nil, "", false
		}
		if i == len(segs)-1 {
			steps = append(steps, pathStep{parent: cur, off: off, field: f})
			return steps, segs[0], true
		}
		if f.IsBitfield() {
			return nil, "", false
		}
		ft := f.Type.Strip()
		switch {
		case ft != nil && ft.Kind == ctypes.KindPointer:
			// The next access dereferences no matter how it is written:
			// memberNode auto-dereferences pointer bases even for '.'.
			elem := ft.Elem
			es := elem.Strip()
			if es == nil || (es.Kind != ctypes.KindStruct && es.Kind != ctypes.KindUnion) {
				return nil, "", false
			}
			steps = append(steps, pathStep{parent: cur, off: off, field: f, next: elem, name: segs[i+1]})
			cur, off = elem, 0
		case !arrows[i+1] && ft != nil && (ft.Kind == ctypes.KindStruct || ft.Kind == ctypes.KindUnion):
			off += f.Offset
			cur = f.Type
		default:
			return nil, "", false
		}
	}
	return nil, "", false
}

func isIdentName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		b := s[i]
		ok := b == '_' || (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') || (i > 0 && b >= '0' && b <= '9')
		if !ok {
			return false
		}
	}
	return true
}
