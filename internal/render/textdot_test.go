package render_test

import (
	"runtime"
	"strings"
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/graph"
	"visualinux/internal/kernelsim"
	"visualinux/internal/render"
)

// checkAppendText holds AppendText to the fmt oracle, and Text to both.
func checkAppendText(t *testing.T, what string, g *graph.Graph) {
	t.Helper()
	want := textOracle(g)
	checkWriter(t, what, "AppendText", render.AppendText, g, []byte(want))
	if render.Text(g) != want {
		t.Fatalf("%s: Text differs from AppendText", what)
	}
}

// checkAppendDOT holds AppendDOT to the fmt oracle, and DOT to both.
func checkAppendDOT(t *testing.T, what string, g *graph.Graph) {
	t.Helper()
	want := dotOracle(g)
	checkWriter(t, what, "AppendDOT", render.AppendDOT, g, []byte(want))
	if render.DOT(g) != want {
		t.Fatalf("%s: DOT differs from AppendDOT", what)
	}
}

// The writers follow the oracles over the display attributes and the shapes
// the small test graph can take.
func TestAppendTextDOTEdges(t *testing.T) {
	check := func(what string, g *graph.Graph) {
		t.Helper()
		checkAppendText(t, what, g)
		checkAppendDOT(t, what, g)
	}
	check("empty graph", graph.New(""))
	check("plain", build())

	g := build()
	a, _ := g.Get("a")
	a.SetAttr(graph.AttrTrimmed, "true")
	c, _ := g.Get("c")
	c.Views["default"].Items[0].SetAttr(graph.AttrDirection, "vertical")
	e, _ := g.Get("e")
	e.SetAttr(graph.AttrCollapsed, "true")
	root, _ := g.Get("root")
	root.AddView(&graph.View{Name: "wide", Items: []graph.Item{
		{Kind: graph.ItemText, Name: "name", Value: strings.Repeat("x", 96) + "日本"},
		{Kind: graph.ItemBox, Name: "inner", TargetID: "b"},
		{Kind: graph.ItemLink, Name: "gone"},
		{Kind: graph.ItemLink, Name: "cut", TargetID: "a"},
		{Kind: graph.ItemContainer, Name: "slots", Elems: []string{"", "c", "a", ""}},
		{Kind: graph.ItemKind(9), Name: "odd"},
	}})
	root.SetAttr(graph.AttrView, "wide")
	check("attributes, views and long lines", g)

	g = build()
	c, _ = g.Get("c")
	c.Views["default"].Items[0].SetAttr(graph.AttrCollapsed, "true")
	g.Add(graph.NewBox("bare", "", "", 0)) // no views, unreachable
	check("collapsed container", g)
}

// FuzzAppendText builds graphs from fuzzed strings and shape flags (see
// fuzzGraph); AppendText must write exactly the fmt oracle's bytes.
func FuzzAppendText(f *testing.F) {
	addRenderSeeds(f)
	f.Fuzz(func(t *testing.T, s1, s2, s3 string, flags uint16) {
		checkAppendText(t, "fuzzed graph", fuzzGraph(s1, s2, s3, flags))
	})
}

// FuzzAppendDOT is FuzzAppendText for AppendDOT.
func FuzzAppendDOT(f *testing.F) {
	addRenderSeeds(f)
	f.Fuzz(func(t *testing.T, s1, s2, s3 string, flags uint16) {
		checkAppendDOT(t, "fuzzed graph", fuzzGraph(s1, s2, s3, flags))
	})
}

// addRenderSeeds adds the inputs whose bytes the text and DOT writers have
// to get exactly right. fuzzGraph's s1 names the graph, the root's text
// item and container elements; s2 is the root's ID; s3 is the text item's
// value, the container's name and, with flag bits 4 and 11, a view name.
func addRenderSeeds(f *testing.F) {
	const (
		views       = 1<<4 | 1<<11 // the root shows a view named s3
		nullSlots   = 1 << 8       // the container holds {s1, "", s3}
		trimChild   = 1 << 12      // the root's link target is trimmed
		kindBox     = 3 << 13      // the root's fourth item is a box
		itemAttrs   = 1 << 10      // container attrs {s1: s2, s3: "true", direction: s1}
		collapsible = itemAttrs | nullSlots
	)
	f.Add("", "", "", uint16(0))
	// Multibyte IDs and view names pad by rune count, not by byte.
	f.Add("名前", "日本語のボックス", "ビュー", uint16(views))
	// A 105-byte text line whose byte 97 falls inside a rune.
	f.Add(strings.Repeat("a", 94), "root", "日本語", uint16(0))
	// A title longer than the 100-byte frame.
	f.Add("x", strings.Repeat("t", 120), "v", uint16(views))
	// Every byte a DOT record label escapes.
	f.Add("a\"b{c}d|e<f>g\nh", "{root|<p>}", "\"\n\"", uint16(nullSlots|kindBox))
	// NULL slots and a trimmed element: s1 names the trimmed child.
	f.Add("r/child", "r", "r/child", uint16(nullSlots|trimChild))
	// A trimmed link target, and an item collapsed by its attributes.
	f.Add("vertical", "root", "collapsed", uint16(collapsible|trimChild|views))
	f.Add("é\xff", "\xe6\x97", "\xed\xa0\x80", uint16(0xffff))
}

// stdlibPanes returns the graphs of every stdlib figure after the cold
// round of a procs 5 / churn 4 session.
func stdlibPanes(tb testing.TB) []*graph.Graph {
	tb.Helper()
	m := core.NewSessionManager(core.ManagerOptions{}, nil)
	ms, err := m.Create("s", core.SessionOptions{Kernel: kernelsim.Options{Processes: 5, Churn: 4}})
	if err != nil {
		tb.Fatal(err)
	}
	rr, err := ms.Round()
	if err != nil {
		tb.Fatal(err)
	}
	if len(rr) < 20 {
		tb.Fatalf("%d panes, want every stdlib figure", len(rr))
	}
	gs := make([]*graph.Graph, len(rr))
	for i, r := range rr {
		gs[i] = r.Pane.Graph
	}
	return gs
}

// Into a presized buffer, AppendText allocates only what Visible and
// Summary allocate: its line scratch lives on the stack and it builds no
// strings of its own. Over the 20 cold panes those two make 97 to 98
// allocations a pass; the count moves by one with map hash seeds (a large
// Visible set splits its tables by hash), so each side is averaged over
// many passes. The writer's own share is pinned at zero and the whole at
// textPaneAllocs.
func TestAppendTextAllocs(t *testing.T) {
	const passes, textPaneAllocs = 200, 98
	gs := stdlibPanes(t)
	bufs := make([][]byte, len(gs))
	for i, g := range gs {
		bufs[i] = render.AppendText(nil, g)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs := func(pass func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range passes {
			pass()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / passes
	}
	base := allocs(func() {
		for _, g := range gs {
			_ = render.Visible(g)
			_ = g.Summary()
		}
	})
	got := allocs(func() {
		for i, g := range gs {
			bufs[i] = render.AppendText(bufs[i][:0], g)
		}
	})
	t.Logf("%d panes: AppendText %.2f allocs a pass, Visible + Summary %.2f", len(gs), got, base)
	if got-base >= 0.5 || got >= textPaneAllocs+0.5 {
		t.Fatalf("AppendText over %d panes: %.2f allocs a pass, want %d and no more than Visible + Summary's %.2f",
			len(gs), got, textPaneAllocs, base)
	}
}

// BenchmarkRenderPanes writes every stdlib pane of a cold round in each
// format, into buffers presized from a first render, as the serialization
// cache presizes from its stale entry.
func BenchmarkRenderPanes(b *testing.B) {
	gs := stdlibPanes(b)
	for _, w := range []struct {
		name  string
		write func([]byte, *graph.Graph) []byte
	}{
		{"json", render.AppendJSON},
		{"text", render.AppendText},
		{"dot", render.AppendDOT},
	} {
		b.Run(w.name, func(b *testing.B) {
			bufs := make([][]byte, len(gs))
			for i, g := range gs {
				bufs[i] = w.write(nil, g)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i, g := range gs {
					bufs[i] = w.write(bufs[i][:0], g)
				}
			}
		})
	}
}
