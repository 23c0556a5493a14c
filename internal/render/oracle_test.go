package render_test

import (
	"fmt"
	"strings"

	"visualinux/internal/graph"
	"visualinux/internal/render"
)

// This file keeps the fmt-based text and DOT renderers the append writers
// replaced, unchanged, as the oracles AppendText and AppendDOT are held to
// byte for byte (as json.Marshal(ToJSON) is for AppendJSON).

// textOracle renders the graph as an ASCII plot.
func textOracle(g *graph.Graph) string {
	vis := render.Visible(g)
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
		writeBoxOracle(&sb, g, b)
	}
	return sb.String()
}

func writeBoxOracle(sb *strings.Builder, g *graph.Graph, b *graph.Box) {
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
		line := itemLineOracle(g, it)
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

func itemLineOracle(g *graph.Graph, it graph.Item) string {
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

// dotOracle renders the graph as Graphviz dot source.
func dotOracle(g *graph.Graph) string {
	vis := render.Visible(g)
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n  rankdir=LR;\n  node [shape=record, fontname=\"monospace\"];\n", g.Name)
	for _, id := range g.Order {
		if !vis[id] {
			continue
		}
		b := g.Boxes[id]
		if b.Collapsed() {
			fmt.Fprintf(&sb, "  %q [label=\"[+] %s\", style=dashed];\n", id, escOracle(b.Label))
			continue
		}
		v := b.CurrentView()
		var fields []string
		fields = append(fields, escOracle(b.ID))
		for _, it := range v.Items {
			if it.Kind == graph.ItemText {
				fields = append(fields, fmt.Sprintf("%s: %s", escOracle(it.Name), escOracle(it.Value)))
			} else if it.Kind == graph.ItemContainer {
				n := 0
				for _, e := range it.Elems {
					if e != "" {
						n++
					}
				}
				fields = append(fields, fmt.Sprintf("<%s> %s[%d]", escOracle(it.Name), escOracle(it.Name), n))
			} else {
				fields = append(fields, fmt.Sprintf("<%s> %s", escOracle(it.Name), escOracle(it.Name)))
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

func escOracle(s string) string {
	r := strings.NewReplacer("\"", "\\\"", "{", "\\{", "}", "\\}", "|", "\\|", "<", "\\<", ">", "\\>", "\n", " ")
	return r.Replace(s)
}
