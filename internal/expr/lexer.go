package expr

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokKind enumerates lexer token kinds.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokAtIdent // @name — ViewCL variable splice
	tokNumber
	tokString
	tokChar
	tokPunct // operators and punctuation; Text holds the spelling
)

type token struct {
	Kind tokKind
	Text string
	Num  uint64
	Pos  int
}

func (t token) String() string {
	switch t.Kind {
	case tokEOF:
		return "<eof>"
	case tokNumber:
		return fmt.Sprintf("%d", t.Num)
	default:
		return t.Text
	}
}

// lexer tokenizes a C expression.
type lexer struct {
	src  string
	pos  int
	toks []token
}

// multi-character operators, longest first.
var multiOps = []string{
	"<<=", ">>=", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "?", ":",
}

// maxTokens bounds an expression's length in tokens, far above any
// hand-written or stdlib expression (the longest stdlib ${...} is 16
// tokens). A flat hostile input such as "1+1+1…" or "----…x" has no
// nesting for the depth cap to catch; without this bound it would cost a
// token per byte here and, for a binary chain, one evaluation frame per
// term later.
const maxTokens = 4096

var errTooManyTokens = fmt.Errorf("expr: expression too long (max %d tokens)", maxTokens)

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	depth := 0 // open ( and [ (see maxParseDepth)
	for {
		if len(l.toks) == maxTokens {
			return nil, errTooManyTokens
		}
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.toks = append(l.toks, token{Kind: tokEOF, Pos: l.pos})
			return l.toks, nil
		}
		c := l.src[l.pos]
		start := l.pos
		switch {
		case c == '@':
			l.pos++
			id := l.ident()
			if id == "" {
				return nil, fmt.Errorf("expr: bare '@' at offset %d in %q", start, l.src)
			}
			l.toks = append(l.toks, token{Kind: tokAtIdent, Text: id, Pos: start})
		case isIdentStart(rune(c)):
			id := l.ident()
			l.toks = append(l.toks, token{Kind: tokIdent, Text: id, Pos: start})
		case c >= '0' && c <= '9':
			n, err := l.number()
			if err != nil {
				return nil, err
			}
			l.toks = append(l.toks, token{Kind: tokNumber, Num: n, Pos: start})
		case c == '\'':
			v, err := l.charLit()
			if err != nil {
				return nil, err
			}
			l.toks = append(l.toks, token{Kind: tokChar, Num: v, Pos: start})
		case c == '"':
			s, err := l.stringLit()
			if err != nil {
				return nil, err
			}
			l.toks = append(l.toks, token{Kind: tokString, Text: s, Pos: start})
		default:
			op := l.punct()
			if op == "" {
				return nil, fmt.Errorf("expr: unexpected character %q at offset %d in %q", c, start, l.src)
			}
			switch op {
			case "(", "[":
				// Fail hostile nesting here, before materializing a token
				// per byte of it; the parser's own cap stays the backstop.
				if depth++; depth > maxParseDepth {
					return nil, errNestedTooDeeply
				}
			case ")", "]":
				depth = max(depth-1, 0)
			}
			l.toks = append(l.toks, token{Kind: tokPunct, Text: op, Pos: start})
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		return
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

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

func (l *lexer) number() (uint64, error) {
	start := l.pos
	s := l.src
	if strings.HasPrefix(s[l.pos:], "0x") || strings.HasPrefix(s[l.pos:], "0X") {
		l.pos += 2
		for l.pos < len(s) && isHexDigit(s[l.pos]) {
			l.pos++
		}
	} else {
		for l.pos < len(s) && s[l.pos] >= '0' && s[l.pos] <= '9' {
			l.pos++
		}
	}
	lit := s[start:l.pos]
	// Swallow C integer suffixes.
	for l.pos < len(s) && (s[l.pos] == 'u' || s[l.pos] == 'U' || s[l.pos] == 'l' || s[l.pos] == 'L') {
		l.pos++
	}
	v, err := strconv.ParseUint(lit, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("expr: bad number %q: %v", lit, err)
	}
	return v, nil
}

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func (l *lexer) charLit() (uint64, error) {
	// l.src[l.pos] == '\''
	l.pos++
	if l.pos >= len(l.src) {
		return 0, fmt.Errorf("expr: unterminated char literal")
	}
	var v uint64
	if l.src[l.pos] == '\\' {
		l.pos++
		if l.pos >= len(l.src) {
			return 0, fmt.Errorf("expr: unterminated escape")
		}
		switch l.src[l.pos] {
		case 'n':
			v = '\n'
		case 't':
			v = '\t'
		case '0':
			v = 0
		case '\\':
			v = '\\'
		case '\'':
			v = '\''
		default:
			return 0, fmt.Errorf("expr: unsupported escape \\%c", l.src[l.pos])
		}
		l.pos++
	} else {
		v = uint64(l.src[l.pos])
		l.pos++
	}
	if l.pos >= len(l.src) || l.src[l.pos] != '\'' {
		return 0, fmt.Errorf("expr: unterminated char literal")
	}
	l.pos++
	return v, nil
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
		if c == '\\' && l.pos+1 < len(l.src) {
			l.pos++
			switch l.src[l.pos] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case '"':
				b.WriteByte('"')
			case '\\':
				b.WriteByte('\\')
			default:
				b.WriteByte(l.src[l.pos])
			}
			l.pos++
			continue
		}
		b.WriteByte(c)
		l.pos++
	}
	return "", fmt.Errorf("expr: unterminated string literal")
}

func (l *lexer) punct() string {
	rest := l.src[l.pos:]
	for _, op := range multiOps {
		if strings.HasPrefix(rest, op) {
			l.pos += len(op)
			return op
		}
	}
	c := rest[0]
	if strings.ContainsRune("+-*/%&|^~!<>()[].,", rune(c)) {
		l.pos++
		return string(c)
	}
	return ""
}
