package render

import (
	"slices"
	"strconv"
	"unicode/utf8"

	"visualinux/internal/graph"
)

// AppendJSON appends the graph's JSON wire form, followed by a newline, to
// dst and returns the extended buffer. The bytes are exactly
// json.Marshal(ToJSON(g)) plus "\n": the same field order, the same
// omitempty and null rules, and the same HTML-safe string escaping. It makes
// one pass over g.Order and builds no intermediate JSONGraph, so a caller
// that hands in a buffer of the right capacity pays almost no allocation.
// JSONGraph remains the documented schema and the reference the tests hold
// this encoder to.
func AppendJSON(dst []byte, g *graph.Graph) []byte {
	vis := Visible(g)
	dst = append(dst, `{"name":`...)
	dst = AppendJSONString(dst, g.Name)
	dst = append(dst, `,"root":`...)
	dst = AppendJSONString(dst, g.RootID)
	if len(g.Roots) > 0 {
		dst = append(dst, `,"roots":`...)
		dst = appendStrings(dst, g.Roots)
	}
	dst = append(dst, `,"boxes":`...)
	hidden := 0
	if len(g.Order) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, id := range g.Order {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendBox(dst, g.Boxes[id], vis[id])
			if !vis[id] {
				hidden++
			}
		}
		dst = append(dst, ']')
	}
	// graph.Stats has no json tags: encoding/json keys it by field name.
	dst = append(dst, `,"stats":{"Objects":`...)
	dst = strconv.AppendInt(dst, int64(g.Stats.Objects), 10)
	dst = append(dst, `,"Bytes":`...)
	dst = strconv.AppendUint(dst, g.Stats.Bytes, 10)
	dst = append(dst, `,"Reads":`...)
	dst = strconv.AppendUint(dst, g.Stats.Reads, 10)
	dst = append(dst, `,"DurationNS":`...)
	dst = strconv.AppendInt(dst, g.Stats.DurationNS, 10)
	dst = append(dst, `},"hidden":`...)
	dst = strconv.AppendInt(dst, int64(hidden), 10)
	return append(dst, "}\n"...)
}

// appendBox writes one JSONBox.
func appendBox(dst []byte, b *graph.Box, visible bool) []byte {
	dst = append(dst, `{"id":`...)
	dst = AppendJSONString(dst, b.ID)
	dst = append(dst, `,"label":`...)
	dst = AppendJSONString(dst, b.Label)
	if b.TypeName != "" {
		dst = append(dst, `,"type":`...)
		dst = AppendJSONString(dst, b.TypeName)
	}
	if b.Addr != 0 {
		dst = append(dst, `,"addr":"0x`...)
		dst = strconv.AppendUint(dst, b.Addr, 16)
		dst = append(dst, '"')
	}
	dst = append(dst, `,"view":`...)
	dst = AppendJSONString(dst, b.CurrentView().Name)
	if len(b.Attrs) > 0 {
		dst = append(dst, `,"attrs":`...)
		dst = appendAttrs(dst, b.Attrs)
	}
	dst = append(dst, `,"views":`...)
	if len(b.ViewSeq) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, vn := range b.ViewSeq {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendView(dst, b.Views[vn])
		}
		dst = append(dst, ']')
	}
	if visible {
		return append(dst, `,"visible":true}`...)
	}
	return append(dst, `,"visible":false}`...)
}

// appendView writes one JSONView.
func appendView(dst []byte, v *graph.View) []byte {
	dst = append(dst, `{"name":`...)
	dst = AppendJSONString(dst, v.Name)
	dst = append(dst, `,"items":`...)
	if len(v.Items) == 0 {
		return append(dst, "null}"...)
	}
	dst = append(dst, '[')
	for i := range v.Items {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendItem(dst, &v.Items[i])
	}
	return append(dst, "]}"...)
}

// appendItem writes one JSONItem.
func appendItem(dst []byte, it *graph.Item) []byte {
	dst = append(dst, `{"kind":`...)
	dst = AppendJSONString(dst, it.Kind.String())
	dst = append(dst, `,"name":`...)
	dst = AppendJSONString(dst, it.Name)
	if it.Value != "" {
		dst = append(dst, `,"value":`...)
		dst = AppendJSONString(dst, it.Value)
	}
	if it.TargetID != "" {
		dst = append(dst, `,"target":`...)
		dst = AppendJSONString(dst, it.TargetID)
	}
	if len(it.Elems) > 0 {
		dst = append(dst, `,"elems":`...)
		dst = appendStrings(dst, it.Elems)
	}
	if len(it.Attrs) > 0 {
		dst = append(dst, `,"attrs":`...)
		dst = appendAttrs(dst, it.Attrs)
	}
	return append(dst, '}')
}

// appendStrings writes a non-empty string slice as a JSON array.
func appendStrings(dst []byte, ss []string) []byte {
	for i, s := range ss {
		if i == 0 {
			dst = append(dst, '[')
		} else {
			dst = append(dst, ',')
		}
		dst = AppendJSONString(dst, s)
	}
	return append(dst, ']')
}

// appendAttrs writes a non-empty attribute map as a JSON object with its
// keys sorted, as encoding/json orders map keys. Attribute maps hold a
// handful of keys, so the key slice lives on the stack.
func appendAttrs(dst []byte, m map[string]string) []byte {
	var arr [8]string
	keys := arr[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for i, k := range keys {
		if i == 0 {
			dst = append(dst, '{')
		} else {
			dst = append(dst, ',')
		}
		dst = AppendJSONString(dst, k)
		dst = append(dst, ':')
		dst = AppendJSONString(dst, m[k])
	}
	return append(dst, '}')
}

// quoteEsc drives AppendJSONString, one entry per byte value: 0 copies the
// byte as is, utf8Start marks the first byte of a multi-byte sequence, and
// any other value is the letter written after the backslash, 'u' standing
// for the six-byte \u00XX form.
var quoteEsc = func() (t [256]byte) {
	for c := 0; c < 0x20; c++ {
		t[c] = 'u'
	}
	t['\b'], t['\f'], t['\n'], t['\r'], t['\t'] = 'b', 'f', 'n', 'r', 't'
	t['"'], t['\\'] = '"', '\\'
	// HTML-safe like encoding/json: a pane body may end up inside a page.
	t['<'], t['>'], t['&'] = 'u', 'u', 'u'
	for c := utf8.RuneSelf; c < len(t); c++ {
		t[c] = utf8Start
	}
	return t
}()

const utf8Start = 1

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s as a JSON string literal, escaped exactly as
// encoding/json escapes a string: short escapes for \b \f \n \r \t " and \,
// \u00XX for the other control bytes and for < > &, \ufffd for each byte of
// invalid UTF-8, and \u2028 / \u2029 for the two JavaScript line
// terminators.
func AppendJSONString[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		esc := quoteEsc[c]
		if esc == 0 {
			i++
			continue
		}
		if esc == utf8Start {
			n := min(len(s)-i, utf8.UTFMax)
			r, size := utf8.DecodeRuneInString(string(s[i : i+n]))
			switch {
			case r == utf8.RuneError && size == 1:
				dst = append(dst, s[start:i]...)
				dst = append(dst, `\ufffd`...)
			case r == '\u2028' || r == '\u2029':
				dst = append(dst, s[start:i]...)
				dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			default:
				i += size
				continue
			}
			i += size
			start = i
			continue
		}
		dst = append(dst, s[start:i]...)
		if esc == 'u' {
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		} else {
			dst = append(dst, '\\', esc)
		}
		i++
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
