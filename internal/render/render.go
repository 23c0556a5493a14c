// Package render turns extracted object graphs into human-readable output:
// an ASCII plot (the terminal analogue of the paper's visualizer panes), a
// Graphviz DOT emitter, and a JSON serialization consumed by the HTTP
// front-end. All renderers honor the ViewQL display attributes: trimmed
// boxes (and everything only reachable through them) disappear, collapsed
// boxes shrink to a click-to-expand button, the view attribute selects the
// layout, and direction controls container orientation.
package render

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"visualinux/internal/graph"
)

// Visible computes the set of boxes to draw: reachable from the roots
// without passing through a trimmed box (trimmed boxes hide their
// descendants, per the paper's attribute semantics).
func Visible(g *graph.Graph) map[string]bool {
	vis := make(map[string]bool, len(g.Boxes))
	roots := g.Roots
	if len(roots) == 0 && g.RootID != "" {
		roots = []string{g.RootID}
	}
	var walk func(id string)
	walk = func(id string) {
		if id == "" || vis[id] {
			return
		}
		b, ok := g.Get(id)
		if !ok || b.Trimmed() {
			return
		}
		vis[id] = true
		if b.Collapsed() {
			return // collapsed boxes hide their outgoing edges until expanded
		}
		// Item-level collapse hides the inline display of a member but not
		// its edges (the paper's Fig 4 keeps child links after collapsing
		// the slot arrays); box-level collapse above hides everything.
		for _, it := range b.CurrentView().Items {
			switch it.Kind {
			case graph.ItemLink, graph.ItemBox:
				walk(it.TargetID)
			case graph.ItemContainer:
				for _, e := range it.Elems {
					walk(e)
				}
			}
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return vis
}

// Text renders the graph as an ASCII plot.
func Text(g *graph.Graph) string { return string(AppendText(nil, g)) }

// AppendText appends the graph's ASCII plot to dst and returns the extended
// buffer: a header line with g.Summary, the number of boxes hidden by
// trim/collapse when there are any, then one framed box per visible box in
// g.Order. A frame is as wide as its longest line, capped at 100 bytes;
// lines pad to the frame by rune count, and a line over 100 bytes is cut at
// byte 97 and ends in "...". Like AppendJSON it makes one pass over
// g.Order, so a caller that hands in a buffer of the right capacity pays
// for little beyond Visible and Summary.
func AppendText(dst []byte, g *graph.Graph) []byte {
	vis := Visible(g)
	dst = append(dst, "== "...)
	dst = append(dst, g.Summary()...)
	dst = append(dst, " ==\n"...)
	shown := 0
	for _, id := range g.Order {
		if vis[id] {
			shown++
		}
	}
	if hidden := len(g.Boxes) - shown; hidden > 0 {
		dst = append(dst, '(')
		dst = strconv.AppendInt(dst, int64(hidden), 10)
		dst = append(dst, " boxes hidden by trim/collapse)\n"...)
	}
	// One box's title and item lines, back to back and already cut to the
	// frame, and where each ends: a frame's width is known only once all
	// its lines are. Reused box after box; a line runs long before it is
	// cut, so the scratch starts well above the frame width.
	var lineBuf [4096]byte
	var endBuf [32]int
	lines, ends := lineBuf[:0], endBuf[:0]
	for _, id := range g.Order {
		if vis[id] {
			dst, lines, ends = appendTextBox(dst, g, g.Boxes[id], lines[:0], ends[:0])
		}
	}
	return dst
}

// maxLine is the widest a text frame gets, in bytes.
const maxLine = 100

var dashes = strings.Repeat("-", maxLine+2)

// appendTextBox appends one box's frame, or its collapse button, using lines
// and ends as scratch for the title and item lines; it returns all three
// buffers.
func appendTextBox(dst []byte, g *graph.Graph, b *graph.Box, lines []byte, ends []int) ([]byte, []byte, []int) {
	v := b.CurrentView()
	if b.Collapsed() {
		dst = append(dst, "[+] "...)
		dst = appendTitle(dst, b, v)
		return append(dst, " (collapsed)\n"...), lines, ends
	}
	lines = appendTitle(lines, b, v) // the one line never cut
	width := len(lines)
	ends = append(ends, len(lines))
	for i := range v.Items {
		start := len(lines)
		lines = appendItemLine(lines, g, &v.Items[i])
		if len(lines)-start > maxLine {
			// Cut at a byte, not a rune boundary, as the plot always has.
			lines = append(lines[:start+maxLine-3], "..."...)
		}
		width = max(width, len(lines)-start)
		ends = append(ends, len(lines))
	}
	width = min(width, maxLine)
	dst = appendBar(dst, width)
	start := 0
	for i, end := range ends {
		dst = appendCell(dst, lines[start:end], width)
		start = end
		if i == 0 {
			dst = appendBar(dst, width)
		}
	}
	return appendBar(dst, width), lines, ends
}

// appendTitle appends a box's title: its ID, and the current view's name
// when that is not the default view.
func appendTitle(dst []byte, b *graph.Box, v *graph.View) []byte {
	dst = append(dst, b.ID...)
	if v.Name != graph.DefaultView {
		dst = append(dst, " :"...)
		dst = append(dst, v.Name...)
	}
	return dst
}

// appendBar appends a frame's top or bottom edge.
func appendBar(dst []byte, width int) []byte {
	dst = append(dst, '+')
	dst = append(dst, dashes[:width+2]...)
	return append(dst, "+\n"...)
}

// appendCell appends one line of a frame, its cell padded with spaces to
// width runes as fmt's %-*s pads a string.
func appendCell(dst, cell []byte, width int) []byte {
	dst = append(dst, "| "...)
	dst = append(dst, cell...)
	for n := utf8.RuneCount(cell); n < width; n++ {
		dst = append(dst, ' ')
	}
	return append(dst, " |\n"...)
}

// appendItemLine appends the text form of one item.
func appendItemLine(dst []byte, g *graph.Graph, it *graph.Item) []byte {
	switch it.Kind {
	case graph.ItemText:
		dst = append(dst, it.Name...)
		dst = append(dst, ": "...)
		return append(dst, it.Value...)
	case graph.ItemLink:
		dst = append(dst, it.Name...)
		switch {
		case it.TargetID == "":
			return append(dst, " -> NULL"...)
		case trimmed(g, it.TargetID):
			return append(dst, " -> (trimmed)"...)
		}
		dst = append(dst, " -> "...)
		return append(dst, it.TargetID...)
	case graph.ItemBox:
		dst = append(dst, it.Name...)
		dst = append(dst, ": ["...)
		dst = append(dst, it.TargetID...)
		return append(dst, ']')
	case graph.ItemContainer:
		n := int64(nonNull(it.Elems))
		dst = append(dst, it.Name...)
		if it.Collapsed() {
			dst = append(dst, ": [+"...)
			dst = strconv.AppendInt(dst, n, 10)
			return append(dst, " collapsed]"...)
		}
		dir := it.Attrs[graph.AttrDirection]
		if dir == "" {
			dir = it.Direction
		}
		sep := ", "
		if dir == "vertical" {
			sep = " / "
		}
		dst = append(dst, '(')
		dst = strconv.AppendInt(dst, n, 10)
		dst = append(dst, "): {"...)
		first := true
		for i, e := range it.Elems {
			if e != "" && trimmed(g, e) {
				continue
			}
			if !first {
				dst = append(dst, sep...)
			}
			first = false
			if e == "" {
				dst = append(dst, '[')
				dst = strconv.AppendInt(dst, int64(i), 10)
				dst = append(dst, "]=NULL"...)
			} else {
				dst = append(dst, e...)
			}
		}
		return append(dst, '}')
	}
	return append(dst, '?')
}

// trimmed reports whether id names a trimmed box of g.
func trimmed(g *graph.Graph, id string) bool {
	b, ok := g.Get(id)
	return ok && b.Trimmed()
}

// nonNull counts a container's non-NULL slots.
func nonNull(elems []string) int {
	n := 0
	for _, e := range elems {
		if e != "" {
			n++
		}
	}
	return n
}

// DOT renders the graph as Graphviz dot source.
func DOT(g *graph.Graph) string { return string(AppendDOT(nil, g)) }

// AppendDOT appends the graph's Graphviz dot source to dst and returns the
// extended buffer: one record node per visible box in g.Order (a dashed
// button for a collapsed box), each followed by its edges to visible
// targets, container edges dotted. IDs and member names are quoted as Go
// strings; record labels escape " { } | < > and turn newlines into spaces.
func AppendDOT(dst []byte, g *graph.Graph) []byte {
	vis := Visible(g)
	dst = append(dst, "digraph "...)
	dst = strconv.AppendQuote(dst, g.Name)
	dst = append(dst, " {\n  rankdir=LR;\n  node [shape=record, fontname=\"monospace\"];\n"...)
	for _, id := range g.Order {
		if !vis[id] {
			continue
		}
		b := g.Boxes[id]
		dst = append(dst, "  "...)
		dst = strconv.AppendQuote(dst, id)
		if b.Collapsed() {
			dst = append(dst, ` [label="[+] `...)
			dst = appendEsc(dst, b.Label)
			dst = append(dst, "\", style=dashed];\n"...)
			continue
		}
		v := b.CurrentView()
		dst = append(dst, ` [label="{`...)
		dst = appendEsc(dst, b.ID)
		for i := range v.Items {
			it := &v.Items[i]
			dst = append(dst, '|')
			if it.Kind == graph.ItemText {
				dst = appendEsc(dst, it.Name)
				dst = append(dst, ": "...)
				dst = appendEsc(dst, it.Value)
				continue
			}
			dst = append(dst, '<')
			dst = appendEsc(dst, it.Name)
			dst = append(dst, "> "...)
			dst = appendEsc(dst, it.Name)
			if it.Kind == graph.ItemContainer {
				dst = append(dst, '[')
				dst = strconv.AppendInt(dst, int64(nonNull(it.Elems)), 10)
				dst = append(dst, ']')
			}
		}
		dst = append(dst, "}\"];\n"...)
		for i := range v.Items {
			it := &v.Items[i]
			switch it.Kind {
			case graph.ItemLink, graph.ItemBox:
				if it.TargetID != "" && vis[it.TargetID] {
					dst = appendEdge(dst, id, it.Name, it.TargetID, ";\n")
				}
			case graph.ItemContainer:
				for _, e := range it.Elems {
					if e != "" && vis[e] {
						dst = appendEdge(dst, id, it.Name, e, " [style=dotted];\n")
					}
				}
			}
		}
	}
	return append(dst, "}\n"...)
}

// appendEdge appends one edge statement from a box's member port.
func appendEdge(dst []byte, from, port, to, tail string) []byte {
	dst = append(dst, "  "...)
	dst = strconv.AppendQuote(dst, from)
	dst = append(dst, ':')
	dst = strconv.AppendQuote(dst, port)
	dst = append(dst, " -> "...)
	dst = strconv.AppendQuote(dst, to)
	return append(dst, tail...)
}

// appendEsc appends s escaped for a record label: a backslash before each
// of " { } | < >, and a space for each newline.
func appendEsc(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '{', '}', '|', '<', '>':
			dst = append(dst, '\\', c)
		case '\n':
			dst = append(dst, ' ')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

// --- JSON export ---------------------------------------------------------------

// JSONGraph is the wire form of a graph for the HTTP front-end.
type JSONGraph struct {
	Name   string      `json:"name"`
	RootID string      `json:"root"`
	Roots  []string    `json:"roots,omitempty"`
	Boxes  []JSONBox   `json:"boxes"`
	Stats  graph.Stats `json:"stats"`
	Hidden int         `json:"hidden"` // boxes suppressed by attributes
}

// JSONBox is the wire form of a box.
type JSONBox struct {
	ID       string            `json:"id"`
	Label    string            `json:"label"`
	TypeName string            `json:"type,omitempty"`
	Addr     string            `json:"addr,omitempty"`
	View     string            `json:"view"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Views    []JSONView        `json:"views"`
	Visible  bool              `json:"visible"`
}

// JSONView is the wire form of a view.
type JSONView struct {
	Name  string     `json:"name"`
	Items []JSONItem `json:"items"`
}

// JSONItem is the wire form of an item.
type JSONItem struct {
	Kind   string            `json:"kind"`
	Name   string            `json:"name"`
	Value  string            `json:"value,omitempty"`
	Target string            `json:"target,omitempty"`
	Elems  []string          `json:"elems,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// ToJSON converts a graph for serialization.
func ToJSON(g *graph.Graph) *JSONGraph {
	vis := Visible(g)
	out := &JSONGraph{Name: g.Name, RootID: g.RootID, Roots: g.Roots, Stats: g.Stats}
	for _, id := range g.Order {
		b := g.Boxes[id]
		jb := JSONBox{
			ID: b.ID, Label: b.Label, TypeName: b.TypeName,
			View: b.CurrentView().Name, Visible: vis[id],
		}
		if b.Addr != 0 {
			jb.Addr = fmt.Sprintf("0x%x", b.Addr)
		}
		if len(b.Attrs) > 0 {
			jb.Attrs = b.Attrs
		}
		for _, vn := range b.ViewSeq {
			v := b.Views[vn]
			jv := JSONView{Name: v.Name}
			for _, it := range v.Items {
				jv.Items = append(jv.Items, JSONItem{
					Kind: it.Kind.String(), Name: it.Name, Value: it.Value,
					Target: it.TargetID, Elems: it.Elems, Attrs: it.Attrs,
				})
			}
			jb.Views = append(jb.Views, jv)
		}
		out.Boxes = append(out.Boxes, jb)
		if !vis[id] {
			out.Hidden++
		}
	}
	return out
}
