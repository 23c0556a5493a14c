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
	"sort"
	"strings"

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
func Text(g *graph.Graph) string {
	vis := Visible(g)
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", g.Summary())
	order := make([]string, 0, len(vis))
	for _, id := range g.Order {
		if vis[id] {
			order = append(order, id)
		}
	}
	hidden := len(g.Boxes) - len(order)
	if hidden > 0 {
		fmt.Fprintf(&sb, "(%d boxes hidden by trim/collapse)\n", hidden)
	}
	for _, id := range order {
		b := g.Boxes[id]
		writeBox(&sb, g, b)
	}
	return sb.String()
}

func writeBox(sb *strings.Builder, g *graph.Graph, b *graph.Box) {
	v := b.CurrentView()
	title := b.ID
	if v.Name != graph.DefaultView {
		title += " :" + v.Name
	}
	if b.Collapsed() {
		fmt.Fprintf(sb, "[+] %s (collapsed)\n", title)
		return
	}
	width := len(title)
	lines := make([]string, 0, len(v.Items))
	for _, it := range v.Items {
		line := itemLine(g, it)
		if len(line) > width {
			width = len(line)
		}
		lines = append(lines, line)
	}
	if width > 100 {
		width = 100
	}
	bar := strings.Repeat("-", width+2)
	fmt.Fprintf(sb, "+%s+\n| %-*s |\n+%s+\n", bar, width, title, bar)
	for _, l := range lines {
		if len(l) > 100 {
			l = l[:97] + "..."
		}
		fmt.Fprintf(sb, "| %-*s |\n", width, l)
	}
	fmt.Fprintf(sb, "+%s+\n", bar)
}

func itemLine(g *graph.Graph, it graph.Item) string {
	switch it.Kind {
	case graph.ItemText:
		return fmt.Sprintf("%s: %s", it.Name, it.Value)
	case graph.ItemLink:
		if it.TargetID == "" {
			return fmt.Sprintf("%s -> NULL", it.Name)
		}
		if tb, ok := g.Get(it.TargetID); ok && tb.Trimmed() {
			return fmt.Sprintf("%s -> (trimmed)", it.Name)
		}
		return fmt.Sprintf("%s -> %s", it.Name, it.TargetID)
	case graph.ItemBox:
		return fmt.Sprintf("%s: [%s]", it.Name, it.TargetID)
	case graph.ItemContainer:
		n := 0
		for _, e := range it.Elems {
			if e != "" {
				n++
			}
		}
		if it.Collapsed() {
			return fmt.Sprintf("%s: [+%d collapsed]", it.Name, n)
		}
		dir := it.Attrs[graph.AttrDirection]
		if dir == "" {
			dir = it.Direction
		}
		shown := make([]string, 0, len(it.Elems))
		for i, e := range it.Elems {
			if e == "" {
				shown = append(shown, fmt.Sprintf("[%d]=NULL", i))
				continue
			}
			if tb, ok := g.Get(e); ok && tb.Trimmed() {
				continue
			}
			shown = append(shown, e)
		}
		sep := ", "
		if dir == "vertical" {
			sep = " / "
		}
		return fmt.Sprintf("%s(%d): {%s}", it.Name, n, strings.Join(shown, sep))
	}
	return "?"
}

// DOT renders the graph as Graphviz dot source.
func DOT(g *graph.Graph) string {
	vis := Visible(g)
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=LR;\n  node [shape=record, fontname=\"monospace\"];\n", g.Name)
	for _, id := range g.Order {
		if !vis[id] {
			continue
		}
		b := g.Boxes[id]
		if b.Collapsed() {
			fmt.Fprintf(&sb, "  %q [label=\"[+] %s\", style=dashed];\n", id, esc(b.Label))
			continue
		}
		v := b.CurrentView()
		var fields []string
		fields = append(fields, esc(b.ID))
		for _, it := range v.Items {
			if it.Kind == graph.ItemText {
				fields = append(fields, fmt.Sprintf("%s: %s", esc(it.Name), esc(it.Value)))
			} else if it.Kind == graph.ItemContainer {
				n := 0
				for _, e := range it.Elems {
					if e != "" {
						n++
					}
				}
				fields = append(fields, fmt.Sprintf("<%s> %s[%d]", esc(it.Name), esc(it.Name), n))
			} else {
				fields = append(fields, fmt.Sprintf("<%s> %s", esc(it.Name), esc(it.Name)))
			}
		}
		fmt.Fprintf(&sb, "  %q [label=\"{%s}\"];\n", id, strings.Join(fields, "|"))
		for _, it := range v.Items {
			switch it.Kind {
			case graph.ItemLink, graph.ItemBox:
				if it.TargetID != "" && vis[it.TargetID] {
					fmt.Fprintf(&sb, "  %q:%q -> %q;\n", id, it.Name, it.TargetID)
				}
			case graph.ItemContainer:
				for _, e := range it.Elems {
					if e != "" && vis[e] {
						fmt.Fprintf(&sb, "  %q:%q -> %q [style=dotted];\n", id, it.Name, e)
					}
				}
			}
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

func esc(s string) string {
	r := strings.NewReplacer("\"", "\\\"", "{", "\\{", "}", "\\}", "|", "\\|", "<", "\\<", ">", "\\>", "\n", " ")
	return r.Replace(s)
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

// TypeHistogram summarizes box counts by type, a quick way for tests and
// the CLI to sanity-check a plot.
func TypeHistogram(g *graph.Graph) map[string]int {
	h := make(map[string]int)
	for _, b := range g.All() {
		key := b.TypeName
		if key == "" {
			key = b.Label
		}
		h[key]++
	}
	return h
}

// HistogramString renders the histogram deterministically.
func HistogramString(h map[string]int) string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s:%d", k, h[k]))
	}
	return strings.Join(parts, " ")
}
