package render_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/graph"
	"visualinux/internal/kernelsim"
	"visualinux/internal/render"
)

// checkAppendJSON holds AppendJSON to its oracle: the bytes of
// json.Marshal(ToJSON(g)) plus a newline, appended after whatever dst held.
func checkAppendJSON(t *testing.T, what string, g *graph.Graph) {
	t.Helper()
	want, err := json.Marshal(render.ToJSON(g))
	if err != nil {
		t.Fatalf("%s: oracle: %v", what, err)
	}
	checkWriter(t, what, "AppendJSON", render.AppendJSON, g, append(want, '\n'))
}

// checkWriter holds an append writer to its oracle's bytes, written onto a
// nil buffer and onto a non-empty one whose prefix it must leave intact.
func checkWriter(t *testing.T, what, name string, write func([]byte, *graph.Graph) []byte, g *graph.Graph, want []byte) {
	t.Helper()
	if got := write(nil, g); !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: %s differs from its oracle at byte %d\n got: %q\nwant: %q",
			what, name, i, excerpt(got, i), excerpt(want, i))
	}
	got := write([]byte("prefix"), g)
	if string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want) {
		t.Fatalf("%s: %s onto a non-empty buffer disturbed it", what, name)
	}
}

func excerpt(b []byte, i int) []byte {
	lo, hi := max(i-40, 0), min(i+40, len(b))
	return b[lo:hi]
}

// The encoder follows every omitempty/null rule of the JSONGraph schema:
// nil and empty slices and maps, boxes without views, views without items,
// hidden boxes, a non-default current view, and extreme stats.
func TestAppendJSONSchemaEdges(t *testing.T) {
	checkAppendJSON(t, "empty graph", graph.New(""))

	g := build()
	checkAppendJSON(t, "plain", g)

	g = build()
	g.Roots = []string{}
	g.Stats = graph.Stats{Objects: -1, Bytes: 1<<64 - 1, Reads: 7, DurationNS: -1 << 63}
	a, _ := g.Get("a")
	a.SetAttr(graph.AttrTrimmed, "true")
	c, _ := g.Get("c")
	c.SetAttr(graph.AttrDirection, "vertical")
	c.Views["default"].Items[0].SetAttr(graph.AttrCollapsed, "true")
	c.Views["default"].Items[0].SetAttr(graph.AttrDirection, "vertical")
	d, _ := g.Get("d")
	d.Attrs = map[string]string{}                           // empty, not nil
	d.Views["default"].Items[0].Attrs = map[string]string{} // empty, not nil
	d.Views["default"].Items[0].Elems = []string{}
	d.AddView(&graph.View{Name: "compact"}) // nil items
	d.AddView(&graph.View{Name: "wide", Items: []graph.Item{}})
	d.SetAttr(graph.AttrView, "wide")
	e, _ := g.Get("e")
	e.SetAttr(graph.AttrCollapsed, "true")
	g.Add(graph.NewBox("bare", "", "", 0)) // no views, unreachable
	g.Add(graph.NewBox("odd", "<&>", "t ", 1<<63))
	checkAppendJSON(t, "attributes and empties", g)
}

// viewqlIdent is what a ViewQL selector can name.
var viewqlIdent = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*$`)

// refineProgram derives a ViewQL program for any figure from its own types
// and members: trim one type, collapse another, turn a third vertical, and
// collapse and turn a container member (item-level attributes).
func refineProgram(g *graph.Graph) string {
	var types []string
	for _, ty := range g.Types() {
		if viewqlIdent.MatchString(ty) {
			types = append(types, ty)
		}
	}
	prog := ""
	for i, upd := range []string{"trimmed: true", "collapsed: true", "direction: vertical"} {
		if i < len(types) {
			prog += fmt.Sprintf("s%d = SELECT %s FROM *\nUPDATE s%d WITH %s\n", i, types[len(types)-1-i], i, upd)
		}
	}
	for _, id := range g.Order {
		b := g.Boxes[id]
		if !viewqlIdent.MatchString(b.TypeName) {
			continue
		}
		for _, it := range b.CurrentView().Items {
			if it.Kind == graph.ItemContainer && viewqlIdent.MatchString(it.Name) {
				return prog + fmt.Sprintf("m = SELECT %s.%s FROM *\nUPDATE m WITH collapsed: true\nUPDATE m WITH direction: vertical\n",
					b.TypeName, it.Name)
			}
		}
	}
	return prog
}

// Every stdlib figure, over incremental rounds of a live procs 5 / churn 4
// session and again after ViewQL display updates, encodes byte-identically
// to the reflection oracle, and renders text and DOT byte-identically to
// their fmt oracles.
func TestAppendJSONStdlibFigures(t *testing.T) {
	m := core.NewSessionManager(core.ManagerOptions{}, nil)
	ms, err := m.Create("s", core.SessionOptions{Kernel: kernelsim.Options{Processes: 5, Churn: 4}})
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string, rr []core.RoundResult) {
		t.Helper()
		if len(rr) < 20 {
			t.Fatalf("%s: %d panes, want every stdlib figure", stage, len(rr))
		}
		for _, r := range rr {
			what := fmt.Sprintf("%s figure %s", stage, r.Fig.ID)
			checkAppendJSON(t, what, r.Pane.Graph)
			checkAppendText(t, what, r.Pane.Graph)
			checkAppendDOT(t, what, r.Pane.Graph)
		}
	}
	rr, err := ms.Round()
	if err != nil {
		t.Fatal(err)
	}
	check("cold round", rr)
	for i := 1; i <= 5; i++ {
		if rr, err = ms.StepRound(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("round %d", i), rr)
	}

	var boxAttrs, itemAttrs int
	for _, r := range rr {
		prog := refineProgram(r.Pane.Graph)
		if err := ms.Session.ApplyViewQL(r.Pane.ID, prog); err != nil {
			t.Fatalf("figure %s: %v\n%s", r.Fig.ID, err, prog)
		}
		for _, b := range r.Pane.Graph.Boxes {
			boxAttrs += len(b.Attrs)
			for _, it := range b.CurrentView().Items {
				itemAttrs += len(it.Attrs)
			}
		}
	}
	if boxAttrs == 0 || itemAttrs == 0 {
		t.Fatalf("ViewQL set %d box and %d item attributes, want both > 0", boxAttrs, itemAttrs)
	}
	check("after ViewQL", rr)
	if rr, err = ms.StepRound(); err != nil {
		t.Fatal(err)
	}
	check("round after ViewQL", rr)
}

// FuzzAppendJSON builds graphs whose every string comes from the fuzzer —
// control bytes, invalid UTF-8, U+2028/U+2029 and <>& among the seeds — and
// whose flags pick nil or empty slices and maps, display attributes and
// item kinds; the encoder must match the oracle on all of them.
func FuzzAppendJSON(f *testing.F) {
	f.Add("", "", "", uint16(0))
	f.Add("task\x00\x01\x1f\x7f", "\xff\xfe\xc0", "a b c", uint16(0x5555))
	f.Add("<script>&amp;</script>", `"quoted\" \\slash`, "\b\f\n\r\t", uint16(0xaaaa))
	f.Add("view", "collapsed", "true", uint16(0xffff))
	f.Add("é日本\U0001F600", "\xed\xa0\x80", "\xf4\x90\x80\x80", uint16(0x1234))
	f.Fuzz(func(t *testing.T, s1, s2, s3 string, flags uint16) {
		for _, s := range []string{s1, s2, s3} {
			want, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			if got := render.AppendJSONString(nil, s); !bytes.Equal(got, want) {
				t.Fatalf("AppendJSONString(%q) = %s, want %s", s, got, want)
			}
			if got := render.AppendJSONString(nil, []byte(s)); !bytes.Equal(got, want) {
				t.Fatalf("AppendJSONString([]byte %q) = %s, want %s", s, got, want)
			}
		}
		checkAppendJSON(t, "fuzzed graph", fuzzGraph(s1, s2, s3, flags))
	})
}

// fuzzGraph builds a three-box graph from fuzzed strings; each flag bit
// switches one shape choice.
func fuzzGraph(s1, s2, s3 string, flags uint16) *graph.Graph {
	bit := func(i uint) bool { return flags&(1<<i) != 0 }
	pick := func(i uint) []string {
		switch {
		case bit(i):
			return []string{}
		case bit(i + 1):
			return []string{s1, "", s3}
		}
		return nil
	}
	attrs := func(i uint) map[string]string {
		switch {
		case bit(i):
			return map[string]string{}
		case bit(i + 1):
			return map[string]string{s1: s2, s3: "true", graph.AttrDirection: s1}
		}
		return nil
	}
	g := graph.New(s1)
	g.RootID = s2
	g.Roots = pick(0)
	if len(g.Roots) > 0 {
		g.Roots[0] = s2
	}
	g.Stats = graph.Stats{Objects: len(s1), Bytes: uint64(len(s2)) << 40, Reads: uint64(flags), DurationNS: -int64(len(s3))}

	root := graph.NewBox(s2, s3, s1, uint64(flags)<<48)
	root.Attrs = attrs(2)
	if bit(4) {
		root.SetAttr(graph.AttrView, s3)
	}
	root.AddView(&graph.View{Name: graph.DefaultView, Items: []graph.Item{
		{Kind: graph.ItemText, Name: s1, Value: s3, Attrs: attrs(5)},
		{Kind: graph.ItemLink, Name: s2, TargetID: s2 + "/child"},
		{Kind: graph.ItemContainer, Name: s3, Elems: pick(7), Direction: s1, Attrs: attrs(9)},
		{Kind: graph.ItemKind(flags >> 13), Name: "", TargetID: s1 + "/bare"},
	}})
	if bit(11) {
		root.AddView(&graph.View{Name: s3, Items: []graph.Item{}})
	}
	g.Add(root)

	child := graph.NewBox(s2+"/child", s1, "", 0)
	if bit(12) {
		child.SetAttr(graph.AttrTrimmed, "true")
	} else {
		child.SetAttr(graph.AttrCollapsed, "true")
	}
	child.AddView(&graph.View{Name: s2})
	g.Add(child)
	g.Add(graph.NewBox(s1+"/bare", "", s2, 1)) // no views at all
	return g
}
