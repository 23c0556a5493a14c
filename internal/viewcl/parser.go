package viewcl

import (
	"strconv"
	"strings"
)

// containerKinds are the builtin converter constructors.
var containerKinds = map[string]bool{
	"List": true, "HList": true, "RBTree": true, "Array": true,
	"XArray": true, "PipeRing": true,
}

type parser struct {
	toks []token
	pos  int
	// pushback for tViewName tokens re-split into ':' + ident
	pending *token
	depth   int // current expression nesting (see maxParseDepth)
}

// maxParseDepth bounds expression nesting. Every recursive production
// (inline boxes, switches, containers, forEach bodies) passes through
// parseVExpr, which counts it. Hand-written programs nest a few levels; a
// hostile "List(List(List(..." would otherwise exhaust the goroutine stack,
// a fatal error recover() cannot catch.
const maxParseDepth = 64

// Parse compiles ViewCL source into a Program.
func Parse(name, src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{Source: name, LOC: countLOC(src)}
	for p.peek().Kind != tEOF {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		prog.Stmts = append(prog.Stmts, s)
	}
	return prog, nil
}

// MustParse panics on error; for embedding the stdlib programs.
func MustParse(name, src string) *Program {
	p, err := Parse(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

func countLOC(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		t := strings.TrimSpace(line)
		if t == "" || strings.HasPrefix(t, "//") {
			continue
		}
		n++
	}
	return n
}

func (p *parser) peek() token {
	if p.pending != nil {
		return *p.pending
	}
	return p.toks[p.pos]
}

func (p *parser) next() token {
	if p.pending != nil {
		t := *p.pending
		p.pending = nil
		return t
	}
	t := p.toks[p.pos]
	p.pos++
	return t
}

func (p *parser) acceptPunct(text string) bool {
	t := p.peek()
	if t.Kind == tPunct && t.Text == text {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectPunct(text string) error {
	t := p.peek()
	if !p.acceptPunct(text) {
		return errf(t.Line, "expected %q, found %q", text, t)
	}
	return nil
}

func (p *parser) expectIdent() (token, error) {
	t := p.next()
	if t.Kind != tIdent {
		return t, errf(t.Line, "expected identifier, found %q", t)
	}
	return t, nil
}

// acceptColon consumes a ':' separator, splitting a fused tViewName token
// ("x" in Text<u64:x>) back into ':' + pending identifier.
func (p *parser) acceptColon() bool {
	t := p.peek()
	if t.Kind == tPunct && t.Text == ":" {
		p.next()
		return true
	}
	if t.Kind == tViewName {
		p.next()
		p.pending = &token{Kind: tIdent, Text: t.Text, Line: t.Line}
		return true
	}
	return false
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.peek()
	if t.Kind != tIdent {
		return nil, errf(t.Line, "expected statement, found %q", t)
	}
	switch t.Text {
	case "define":
		return p.parseDefine()
	case "plot":
		p.next()
		e, err := p.parseVExpr()
		if err != nil {
			return nil, err
		}
		return &PlotStmt{Expr: e, Line: t.Line}, nil
	default:
		// binding: name = expr
		name := p.next()
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		e, err := p.parseVExpr()
		if err != nil {
			return nil, err
		}
		return &BindStmt{Name: name.Text, Expr: e, Line: t.Line}, nil
	}
}

func (p *parser) parseDefine() (*DefineStmt, error) {
	kw := p.next() // define
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	as, err := p.expectIdent()
	if err != nil || as.Text != "as" {
		return nil, errf(name.Line, "expected 'as' after define %s", name.Text)
	}
	box, err := p.expectIdent()
	if err != nil || box.Text != "Box" {
		return nil, errf(name.Line, "expected 'Box' in define %s", name.Text)
	}
	if err := p.expectPunct("<"); err != nil {
		return nil, err
	}
	ct, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(">"); err != nil {
		return nil, err
	}
	d := &DefineStmt{Name: name.Text, CType: ct.Text, Line: kw.Line}
	switch {
	case p.acceptPunct("["):
		// single default view
		items, err := p.parseItems()
		if err != nil {
			return nil, err
		}
		vd := &ViewDecl{Name: "default", Items: items, Line: kw.Line}
		if w, err := p.parseOptWhere(); err != nil {
			return nil, err
		} else {
			vd.Where = w
		}
		d.Views = []*ViewDecl{vd}
	case p.acceptPunct("{"):
		for !p.acceptPunct("}") {
			vd, err := p.parseViewDecl()
			if err != nil {
				return nil, err
			}
			d.Views = append(d.Views, vd)
		}
		if w, err := p.parseOptWhere(); err != nil {
			return nil, err
		} else {
			d.Where = w
		}
	default:
		return nil, errf(kw.Line, "expected '[' or '{' in define %s", name.Text)
	}
	return d, nil
}

func (p *parser) parseViewDecl() (*ViewDecl, error) {
	t := p.next()
	if t.Kind != tViewName {
		return nil, errf(t.Line, "expected view name (:name), found %q", t)
	}
	vd := &ViewDecl{Name: t.Text, Line: t.Line}
	if p.acceptPunct("=>") {
		child := p.next()
		if child.Kind != tViewName {
			return nil, errf(child.Line, "expected child view name after '=>'")
		}
		vd.Parent = vd.Name
		vd.Name = child.Text
	}
	if err := p.expectPunct("["); err != nil {
		return nil, err
	}
	items, err := p.parseItems()
	if err != nil {
		return nil, err
	}
	vd.Items = items
	w, err := p.parseOptWhere()
	if err != nil {
		return nil, err
	}
	vd.Where = w
	return vd, nil
}

// parseOptWhere parses an optional `where { bindings }` clause.
func (p *parser) parseOptWhere() ([]Binding, error) {
	t := p.peek()
	if t.Kind != tIdent || t.Text != "where" {
		return nil, nil
	}
	p.next()
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	var out []Binding
	for !p.acceptPunct("}") {
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		e, err := p.parseVExpr()
		if err != nil {
			return nil, err
		}
		out = append(out, Binding{Name: name.Text, Expr: e, Line: name.Line})
	}
	return out, nil
}

// parseItems parses view items up to the closing ']'.
func (p *parser) parseItems() ([]ItemDecl, error) {
	var items []ItemDecl
	for !p.acceptPunct("]") {
		t := p.peek()
		if t.Kind != tIdent {
			return nil, errf(t.Line, "expected item declaration, found %q", t)
		}
		switch t.Text {
		case "Text":
			ts, err := p.parseTextItems()
			if err != nil {
				return nil, err
			}
			items = append(items, ts...)
		case "Link":
			p.next()
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			// Flattened link paths: Link a.b.c -> target
			label := name.Text
			for p.acceptPunct(".") {
				nn, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				label += "." + nn.Text
			}
			if !p.acceptPunct("->") && !p.acceptColon() {
				return nil, errf(t.Line, "expected '->' in Link %s", label)
			}
			e, err := p.parseVExpr()
			if err != nil {
				return nil, err
			}
			items = append(items, &LinkItem{Name: label, Target: e, Line: t.Line})
		case "Container":
			p.next()
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if !p.acceptColon() {
				return nil, errf(t.Line, "expected ':' in Container %s", name.Text)
			}
			e, err := p.parseVExpr()
			if err != nil {
				return nil, err
			}
			items = append(items, &ContainerItem{Name: name.Text, Expr: e, Line: t.Line})
		case "Box":
			p.next()
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			if !p.acceptColon() {
				return nil, errf(t.Line, "expected ':' in Box %s", name.Text)
			}
			e, err := p.parseVExpr()
			if err != nil {
				return nil, err
			}
			items = append(items, &BoxItem{Name: name.Text, Expr: e, Line: t.Line})
		default:
			return nil, errf(t.Line, "unknown item keyword %q", t.Text)
		}
	}
	return items, nil
}

// parseTextItems parses: Text[<fmt>] spec ("," spec)*
// where spec := path [":" expr].
func (p *parser) parseTextItems() ([]ItemDecl, error) {
	kw := p.next() // Text
	var fmtp *Format
	if p.acceptPunct("<") {
		f, err := p.parseFormat()
		if err != nil {
			return nil, err
		}
		fmtp = f
		if err := p.expectPunct(">"); err != nil {
			return nil, err
		}
	}
	var items []ItemDecl
	for {
		// path: ident (. ident)* — or @binding reference shorthand
		var name string
		var ex VExpr
		t := p.peek()
		if t.Kind == tAtIdent {
			p.next()
			name = t.Text
			ex = &VarRef{Name: t.Text, Line: t.Line}
		} else {
			id, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			name = id.Text
			for p.acceptPunct(".") {
				nn, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				name += "." + nn.Text
			}
		}
		it := &TextItem{Fmt: fmtp, Name: name, Line: kw.Line}
		if ex != nil {
			it.Expr = ex
		} else {
			it.Path = name
		}
		if p.acceptColon() {
			// explicit value: either a member path or a full expression
			e, err := p.parseTextValue()
			if err != nil {
				return nil, err
			}
			it.Expr = e
			it.Path = ""
		}
		items = append(items, it)
		if !p.acceptPunct(",") {
			return items, nil
		}
	}
}

// parseTextValue parses the RHS of "Text name: ..." — a bare member path is
// shorthand for ${@this->path}.
func (p *parser) parseTextValue() (VExpr, error) {
	t := p.peek()
	if t.Kind == tIdent && !containerKinds[t.Text] && t.Text != "switch" && t.Text != "NULL" && t.Text != "Box" {
		// Lookahead: ident(.ident)* not followed by '(' or '<' is a path.
		save := p.pos
		savePending := p.pending
		id := p.next()
		path := id.Text
		for p.acceptPunct(".") {
			nn, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			path += "." + nn.Text
		}
		nt := p.peek()
		if nt.Kind == tPunct && (nt.Text == "(" || nt.Text == "<") {
			// It was a constructor after all; rewind.
			p.pos = save
			p.pending = savePending
		} else {
			return &CExprNode{Src: "@this->" + strings.ReplaceAll(path, ".", "->"), Line: id.Line}, nil
		}
	}
	return p.parseVExpr()
}

func (p *parser) parseFormat() (*Format, error) {
	id, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	f := &Format{Kind: id.Text}
	if p.acceptColon() {
		arg, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		f.Arg = arg.Text
	}
	return f, nil
}

// parseVExpr parses a ViewCL expression.
func (p *parser) parseVExpr() (VExpr, error) {
	t := p.peek()
	if p.depth++; p.depth > maxParseDepth {
		return nil, errf(t.Line, "expression nested too deeply (max %d)", maxParseDepth)
	}
	defer func() { p.depth-- }()
	switch t.Kind {
	case tCExpr:
		p.next()
		return &CExprNode{Src: t.Text, Line: t.Line}, nil
	case tAtIdent:
		p.next()
		return &VarRef{Name: t.Text, Line: t.Line}, nil
	case tNumber:
		p.next()
		v, err := strconv.ParseUint(t.Text, 0, 64)
		if err != nil {
			return nil, errf(t.Line, "bad number %q", t.Text)
		}
		return &NumberNode{V: v, Line: t.Line}, nil
	case tString:
		p.next()
		return &StringNode{S: t.Text, Line: t.Line}, nil
	case tIdent:
		switch t.Text {
		case "NULL":
			p.next()
			return &NullNode{Line: t.Line}, nil
		case "switch":
			return p.parseSwitch()
		case "Box":
			return p.parseInlineBox()
		case "Array":
			// Array.selectFrom(expr, Type) | Array(expr[, count]).
			// Look past the "Array" token, which may live in pending.
			base := p.pos + 1
			if p.pending != nil {
				base = p.pos
			}
			if base+1 < len(p.toks) &&
				p.toks[base].Kind == tPunct && p.toks[base].Text == "." &&
				p.toks[base+1].Kind == tIdent && p.toks[base+1].Text == "selectFrom" {
				p.next() // Array
				p.next() // .
				p.next() // selectFrom
				if err := p.expectPunct("("); err != nil {
					return nil, err
				}
				c, err := p.parseVExpr()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(","); err != nil {
					return nil, err
				}
				bt, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				return &SelectFromNode{Container: c, BoxType: bt.Text, Line: t.Line}, nil
			}
			return p.parseContainerOrConstruct()
		default:
			return p.parseContainerOrConstruct()
		}
	}
	return nil, errf(t.Line, "expected expression, found %q", t)
}

// parseContainerOrConstruct parses Name(...) | Name<anchor>(...) with an
// optional .forEach clause for containers.
func (p *parser) parseContainerOrConstruct() (VExpr, error) {
	name := p.next() // tIdent
	anchor := ""
	if p.acceptPunct("<") {
		id, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		anchor = id.Text
		for p.acceptPunct(".") {
			nn, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			anchor += "." + nn.Text
		}
		if err := p.expectPunct(">"); err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []VExpr
	if !p.acceptPunct(")") {
		for {
			a, err := p.parseVExpr()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.acceptPunct(")") {
				break
			}
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
	}
	if containerKinds[name.Text] {
		cn := &ContainerNode{Kind: name.Text, Args: args, Line: name.Line}
		fe, err := p.parseOptForEach()
		if err != nil {
			return nil, err
		}
		cn.ForEach = fe
		return cn, nil
	}
	if len(args) != 1 {
		return nil, errf(name.Line, "%s(...) wants exactly one argument", name.Text)
	}
	return &ConstructNode{BoxType: name.Text, Anchor: anchor, Arg: args[0], Line: name.Line}, nil
}

func (p *parser) parseOptForEach() (*ForEachClause, error) {
	if !(p.peek().Kind == tPunct && p.peek().Text == ".") {
		return nil, nil
	}
	p.next() // .
	kw, err := p.expectIdent()
	if err != nil || kw.Text != "forEach" {
		return nil, errf(kw.Line, "expected forEach after '.'")
	}
	if err := p.expectPunct("|"); err != nil {
		return nil, err
	}
	v, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("|"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	fe := &ForEachClause{Var: v.Text, Line: kw.Line}
	for !p.acceptPunct("}") {
		t, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if t.Text == "yield" {
			if fe.Yield != nil {
				return nil, errf(t.Line, "multiple yields in forEach")
			}
			y, err := p.parseVExpr()
			if err != nil {
				return nil, err
			}
			fe.Yield = y
			continue
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		e, err := p.parseVExpr()
		if err != nil {
			return nil, err
		}
		fe.Body = append(fe.Body, Binding{Name: t.Text, Expr: e, Line: t.Line})
	}
	if fe.Yield == nil {
		return nil, errf(fe.Line, "forEach without yield")
	}
	return fe, nil
}

func (p *parser) parseSwitch() (VExpr, error) {
	kw := p.next() // switch
	scrut, err := p.parseVExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	sw := &SwitchNode{Scrutinee: scrut, Line: kw.Line}
	for !p.acceptPunct("}") {
		t, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		switch t.Text {
		case "case":
			var vals []VExpr
			for {
				v, err := p.parseVExpr()
				if err != nil {
					return nil, err
				}
				vals = append(vals, v)
				if !p.acceptPunct(",") {
					break
				}
			}
			if !p.acceptColon() {
				return nil, errf(t.Line, "expected ':' after case values")
			}
			res, err := p.parseVExpr()
			if err != nil {
				return nil, err
			}
			sw.Cases = append(sw.Cases, SwitchCase{Values: vals, Result: res})
		case "otherwise":
			if !p.acceptColon() {
				return nil, errf(t.Line, "expected ':' after otherwise")
			}
			res, err := p.parseVExpr()
			if err != nil {
				return nil, err
			}
			sw.Otherwise = res
		default:
			return nil, errf(t.Line, "expected case/otherwise, found %q", t.Text)
		}
	}
	return sw, nil
}

func (p *parser) parseInlineBox() (VExpr, error) {
	kw := p.next() // Box
	if err := p.expectPunct("["); err != nil {
		return nil, err
	}
	items, err := p.parseItems()
	if err != nil {
		return nil, err
	}
	w, err := p.parseOptWhere()
	if err != nil {
		return nil, err
	}
	return &InlineBoxNode{Items: items, Where: w, Line: kw.Line}, nil
}
