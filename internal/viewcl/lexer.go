// Package viewcl implements the View Construction Language (paper §2.2,
// §4.1): a DSL for declaring Boxes over C types, with multiple inheritable
// Views, where-clause bindings, ${...} C-expression escapes, container
// converters, switch-case polymorphism and text decorators. Evaluating a
// ViewCL program against a debug target extracts a simplified object graph
// (package graph) by applying the paper's three operators: prune (Box/View
// declarations), flatten (dot paths), distill (converter functions).
package viewcl

import (
	"fmt"
	"strings"
	"unicode"
)

type tokKind int

const (
	tEOF tokKind = iota
	tIdent
	tAtIdent  // @name
	tViewName // :name
	tCExpr    // ${ ... } raw C expression text
	tNumber
	tString
	tPunct
)

type token struct {
	Kind tokKind
	Text string
	Line int
}

func (t token) String() string {
	switch t.Kind {
	case tEOF:
		return "<eof>"
	case tCExpr:
		return "${" + t.Text + "}"
	case tViewName:
		return ":" + t.Text
	case tAtIdent:
		return "@" + t.Text
	default:
		return t.Text
	}
}

// Error is a positioned ViewCL error.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("viewcl:%d: %s", e.Line, e.Msg) }

func errf(line int, format string, args ...any) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

type lexer struct {
	src  string
	pos  int
	line int
}

var vclPunct = []string{"=>", "->", "{", "}", "[", "]", "(", ")", "<", ">", ",", ":", "=", "|", "."}

// maxTokens bounds a program's length in tokens, far above the largest
// stdlib figure (359 tokens), so a flat hostile program fails
// here instead of costing a token per byte. A ${...} escape is one token;
// the expression lexer bounds its body.
const maxTokens = 1 << 14

func lexAll(src string) ([]token, error) {
	l := &lexer{src: src, line: 1}
	var toks []token
	depth := 0 // open {, [ and ( (see maxParseDepth)
	for {
		if len(toks) == maxTokens {
			return nil, errf(l.line, "program too long (max %d tokens)", maxTokens)
		}
		l.skip()
		if l.pos >= len(l.src) {
			toks = append(toks, token{Kind: tEOF, Line: l.line})
			return toks, nil
		}
		start := l.line
		c := l.src[l.pos]
		switch {
		case c == '$' && l.peekAt(1) == '{':
			body, err := l.cexpr()
			if err != nil {
				return nil, err
			}
			toks = append(toks, token{Kind: tCExpr, Text: body, Line: start})
		case c == '@':
			l.pos++
			id := l.ident()
			if id == "" {
				return nil, errf(l.line, "bare '@'")
			}
			toks = append(toks, token{Kind: tAtIdent, Text: id, Line: start})
		case c == ':' && l.pos+1 < len(l.src) && isIdentStart(rune(l.src[l.pos+1])):
			// A view name like :default — but only when it follows a
			// context where ':' can't be the key-value separator. The
			// parser disambiguates; here we lex ':' + ident as tViewName
			// only if preceded by '{', '}', ']' or => at line start. To
			// keep the lexer simple we always emit tViewName and let the
			// parser re-interpret it as (':' ident) when needed.
			l.pos++
			id := l.ident()
			toks = append(toks, token{Kind: tViewName, Text: id, Line: start})
		case isIdentStart(rune(c)):
			toks = append(toks, token{Kind: tIdent, Text: l.ident(), Line: start})
		case c >= '0' && c <= '9':
			toks = append(toks, token{Kind: tNumber, Text: l.number(), Line: start})
		case c == '"':
			s, err := l.stringLit()
			if err != nil {
				return nil, err
			}
			toks = append(toks, token{Kind: tString, Text: s, Line: start})
		default:
			op := l.punct()
			if op == "" {
				return nil, errf(l.line, "unexpected character %q", c)
			}
			switch op {
			case "{", "[", "(":
				// Fail hostile nesting here, before materializing a token
				// per byte of it; the parser's own cap stays the backstop.
				if depth++; depth > maxParseDepth {
					return nil, errf(l.line, "expression nested too deeply (max %d)", maxParseDepth)
				}
			case "}", "]", ")":
				depth = max(depth-1, 0)
			}
			toks = append(toks, token{Kind: tPunct, Text: op, Line: start})
		}
	}
}

func (l *lexer) peekAt(d int) byte {
	if l.pos+d < len(l.src) {
		return l.src[l.pos+d]
	}
	return 0
}

func (l *lexer) skip() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.peekAt(1) == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.peekAt(1) == '*':
			l.pos += 2
			for l.pos < len(l.src) && !(l.src[l.pos] == '*' && l.peekAt(1) == '/') {
				if l.src[l.pos] == '\n' {
					l.line++
				}
				l.pos++
			}
			l.pos += 2
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool { return r == '_' || unicode.IsLetter(r) }
func isIdentCont(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

func (l *lexer) ident() string {
	start := l.pos
	for l.pos < len(l.src) && isIdentCont(rune(l.src[l.pos])) {
		l.pos++
	}
	return l.src[start:l.pos]
}

func (l *lexer) number() string {
	start := l.pos
	if strings.HasPrefix(l.src[l.pos:], "0x") || strings.HasPrefix(l.src[l.pos:], "0X") {
		l.pos += 2
	}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F' {
			l.pos++
			continue
		}
		break
	}
	return l.src[start:l.pos]
}

func (l *lexer) stringLit() (string, error) {
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '"' {
			l.pos++
			return b.String(), nil
		}
		if c == '\n' {
			return "", errf(l.line, "newline in string literal")
		}
		if c == '\\' && l.pos+1 < len(l.src) {
			l.pos++
			c = l.src[l.pos]
		}
		b.WriteByte(c)
		l.pos++
	}
	return "", errf(l.line, "unterminated string")
}

// cexpr lexes a ${ ... } escape, balancing braces so C compound literals
// survive; braces inside C string and char literals are ignored.
func (l *lexer) cexpr() (string, error) {
	l.pos += 2 // consume "${"
	depth := 1
	start := l.pos
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '"', '\'':
			quote := c
			l.pos++
			for l.pos < len(l.src) && l.src[l.pos] != quote {
				if l.src[l.pos] == '\\' {
					l.pos++
				}
				if l.pos < len(l.src) && l.src[l.pos] == '\n' {
					l.line++
				}
				l.pos++
			}
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				body := l.src[start:l.pos]
				l.pos++
				return strings.TrimSpace(body), nil
			}
		case '\n':
			l.line++
		}
		l.pos++
	}
	return "", errf(l.line, "unterminated ${...}")
}

func (l *lexer) punct() string {
	rest := l.src[l.pos:]
	for _, op := range vclPunct {
		if strings.HasPrefix(rest, op) {
			l.pos += len(op)
			return op
		}
	}
	return ""
}
