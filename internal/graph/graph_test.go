package graph_test

import (
	"fmt"
	"testing"

	"visualinux/internal/graph"
)

func box(g *graph.Graph, id string, links ...string) *graph.Box {
	b := graph.NewBox(id, id, "t", 0)
	var items []graph.Item
	for _, l := range links {
		items = append(items, graph.Item{Kind: graph.ItemLink, Name: "to_" + l, TargetID: l})
	}
	b.AddView(&graph.View{Name: "default", Items: items})
	return g.Add(b)
}

func TestAddDeduplicates(t *testing.T) {
	g := graph.New("g")
	a := box(g, "a")
	a2 := g.Add(graph.NewBox("a", "other", "t2", 7))
	if a2 != a {
		t.Error("duplicate ID created a second box")
	}
	if len(g.Order) != 1 {
		t.Errorf("order = %v", g.Order)
	}
}

func TestReachability(t *testing.T) {
	g := graph.New("g")
	box(g, "d")
	box(g, "c", "d")
	box(g, "b")
	box(g, "a", "b", "c")
	box(g, "island")
	r := g.Reachable([]string{"a"})
	for _, id := range []string{"a", "b", "c", "d"} {
		if !r[id] {
			t.Errorf("%s unreachable", id)
		}
	}
	if r["island"] {
		t.Error("island reachable")
	}
	// Cycles terminate.
	ca, _ := g.Get("d")
	ca.Views["default"].Items = append(ca.Views["default"].Items,
		graph.Item{Kind: graph.ItemLink, Name: "back", TargetID: "a"})
	r = g.Reachable([]string{"a"})
	if len(r) != 4 {
		t.Errorf("cycle reach = %d", len(r))
	}
}

func TestViewsAndMember(t *testing.T) {
	b := graph.NewBox("x", "X", "t", 1)
	b.AddView(&graph.View{Name: "default", Items: []graph.Item{
		{Kind: graph.ItemText, Name: "pid", Value: "1", Raw: 1, IsNum: true},
	}})
	b.AddView(&graph.View{Name: "deep", Items: []graph.Item{
		{Kind: graph.ItemText, Name: "extra", Value: "9"},
	}})
	if b.CurrentView().Name != "default" {
		t.Errorf("current = %s", b.CurrentView().Name)
	}
	b.SetAttr(graph.AttrView, "deep")
	if b.CurrentView().Name != "deep" {
		t.Errorf("current = %s", b.CurrentView().Name)
	}
	// Member search spans non-current views.
	if it, ok := b.Member("pid"); !ok || it.Raw != 1 {
		t.Errorf("member pid = %+v, %v", it, ok)
	}
	// Unknown view falls back to default.
	b.SetAttr(graph.AttrView, "ghost")
	if b.CurrentView().Name != "default" {
		t.Errorf("fallback = %s", b.CurrentView().Name)
	}
	// Attribute clear semantics.
	b.SetAttr(graph.AttrTrimmed, "true")
	if !b.Trimmed() {
		t.Error("trim set failed")
	}
	b.SetAttr(graph.AttrTrimmed, "false")
	if b.Trimmed() {
		t.Error("trim clear failed")
	}
}

func TestItemAttrs(t *testing.T) {
	it := graph.Item{Kind: graph.ItemContainer, Name: "c"}
	if it.Collapsed() {
		t.Error("zero item collapsed")
	}
	it.SetAttr(graph.AttrCollapsed, "true")
	if !it.Collapsed() {
		t.Error("set failed")
	}
	it.SetAttr(graph.AttrCollapsed, "")
	if it.Collapsed() {
		t.Error("clear failed")
	}
}

func TestByTypeAndTypes(t *testing.T) {
	g := graph.New("g")
	g.Add(graph.NewBox("a", "Task", "task_struct", 1))
	g.Add(graph.NewBox("b", "Task", "task_struct", 2))
	g.Add(graph.NewBox("c", "MM", "mm_struct", 3))
	if n := len(g.ByType("task_struct")); n != 2 {
		t.Errorf("by C type = %d", n)
	}
	if n := len(g.ByType("Task")); n != 2 {
		t.Errorf("by label = %d", n)
	}
	types := g.Types()
	if len(types) != 2 || types[0] != "mm_struct" {
		t.Errorf("types = %v", types)
	}
}

// Summary counts distinct types as Types lists them, in the one-line form
// the pane list and the text header print.
func TestSummary(t *testing.T) {
	g := graph.New("fig 3-4")
	if got, want := g.Summary(), "fig 3-4: 0 boxes, 0 types, root="; got != want {
		t.Errorf("empty: %q, want %q", got, want)
	}
	for i, ty := range []string{"task_struct", "", "mm_struct", "task_struct", "日本", ""} {
		g.Add(graph.NewBox(fmt.Sprintf("b%d", i), "L", ty, uint64(i)))
	}
	g.RootID = "b0"
	want := fmt.Sprintf("%s: %d boxes, %d types, root=%s", g.Name, len(g.Boxes), len(g.Types()), g.RootID)
	if got := g.Summary(); got != want || want != "fig 3-4: 6 boxes, 3 types, root=b0" {
		t.Errorf("Summary() = %q, want %q", got, want)
	}
}

func TestBoxIDAndParse(t *testing.T) {
	id := graph.BoxID("Task", 0xffff888000001000)
	if id != "Task@0xffff888000001000" {
		t.Errorf("id = %s", id)
	}
	if a := graph.ParseBoxAddr(id); a != 0xffff888000001000 {
		t.Errorf("parse = %#x", a)
	}
	if a := graph.ParseBoxAddr("cell#5"); a != 0 {
		t.Errorf("non-canonical = %#x", a)
	}
}

func TestCloneView(t *testing.T) {
	v := &graph.View{Name: "v", Items: []graph.Item{
		{Kind: graph.ItemContainer, Name: "c", Elems: []string{"a", "b"}},
	}}
	c := v.Clone()
	c.Items[0].Elems[0] = "changed"
	if v.Items[0].Elems[0] != "a" {
		t.Error("clone shares element slice")
	}
}

// equalSample builds a small graph that sets every field Equal compares.
func equalSample() *graph.Graph {
	g := graph.New("fig")
	a := graph.NewBox("a", "Task", "task_struct", 0x10)
	a.AddView(&graph.View{Name: "default", Items: []graph.Item{
		{Kind: graph.ItemText, Name: "pid", Value: "1", Raw: 1, IsNum: true},
		{Kind: graph.ItemText, Name: "comm", Value: "init", IsStr: true},
		{Kind: graph.ItemLink, Name: "parent", TargetID: "b"},
		{Kind: graph.ItemContainer, Name: "children", Elems: []string{"b", ""}, Direction: "vertical",
			Attrs: map[string]string{graph.AttrCollapsed: "true"}},
	}})
	a.AddView(&graph.View{Name: "full", Items: []graph.Item{{Kind: graph.ItemBox, Name: "se", TargetID: "b"}}})
	a.SetAttr(graph.AttrView, "full")
	g.Add(a)
	b := graph.NewBox("b", "Task", "task_struct", 0x20)
	b.AddView(&graph.View{Name: "default"})
	g.Add(b)
	g.RootID = "a"
	g.Roots = []string{"a"}
	return g
}

// Changing any one field the serializers or ViewQL read makes Equal false;
// stats and nil-versus-empty do not.
func TestEqualFields(t *testing.T) {
	item := func(g *graph.Graph, i int) *graph.Item { return &g.Boxes["a"].Views["default"].Items[i] }
	cases := []struct {
		name  string
		edit  func(g *graph.Graph)
		equal bool
	}{
		{"Name", func(g *graph.Graph) { g.Name = "other" }, false},
		{"RootID", func(g *graph.Graph) { g.RootID = "b" }, false},
		{"Roots", func(g *graph.Graph) { g.Roots = append(g.Roots, "b") }, false},
		{"Order", func(g *graph.Graph) { g.Order[0], g.Order[1] = g.Order[1], g.Order[0] }, false},
		{"Boxes", func(g *graph.Graph) { g.Boxes["c"] = graph.NewBox("c", "X", "", 0) }, false},
		{"Box.ID", func(g *graph.Graph) { g.Boxes["a"].ID = "z" }, false},
		{"Box.Label", func(g *graph.Graph) { g.Boxes["a"].Label = "Proc" }, false},
		{"Box.TypeName", func(g *graph.Graph) { g.Boxes["a"].TypeName = "pid" }, false},
		{"Box.Addr", func(g *graph.Graph) { g.Boxes["a"].Addr++ }, false},
		{"Box.ViewSeq", func(g *graph.Graph) { s := g.Boxes["a"].ViewSeq; s[0], s[1] = s[1], s[0] }, false},
		{"Box.Views", func(g *graph.Graph) { g.Boxes["b"].Views["extra"] = &graph.View{Name: "extra"} }, false},
		{"View.Name", func(g *graph.Graph) { g.Boxes["a"].Views["full"].Name = "wide" }, false},
		{"View.Items", func(g *graph.Graph) { g.Boxes["b"].Views["default"].Items = []graph.Item{{Name: "x"}} }, false},
		{"Box.Attrs", func(g *graph.Graph) { g.Boxes["a"].SetAttr(graph.AttrTrimmed, "true") }, false},
		{"Item.Kind", func(g *graph.Graph) { item(g, 2).Kind = graph.ItemBox }, false},
		{"Item.Name", func(g *graph.Graph) { item(g, 0).Name = "tgid" }, false},
		{"Item.Value", func(g *graph.Graph) { item(g, 0).Value = "2" }, false},
		{"Item.Raw", func(g *graph.Graph) { item(g, 0).Raw = 2 }, false},
		{"Item.IsNum", func(g *graph.Graph) { item(g, 0).IsNum = false }, false},
		{"Item.IsStr", func(g *graph.Graph) { item(g, 1).IsStr = false }, false},
		{"Item.TargetID", func(g *graph.Graph) { item(g, 2).TargetID = "" }, false},
		{"Item.Elems", func(g *graph.Graph) { item(g, 3).Elems[1] = "a" }, false},
		{"Item.Direction", func(g *graph.Graph) { item(g, 3).Direction = "" }, false},
		{"Item.Attrs", func(g *graph.Graph) { item(g, 3).SetAttr(graph.AttrCollapsed, "") }, false},
		{"Stats", func(g *graph.Graph) { g.Stats = graph.Stats{Objects: 2, Bytes: 9, Reads: 3, DurationNS: 7} }, true},
		{"nil versus empty", func(g *graph.Graph) {
			item(g, 0).Elems, item(g, 0).Attrs = []string{}, map[string]string{}
			g.Boxes["b"].Attrs, g.Boxes["b"].Views["default"].Items = map[string]string{}, []graph.Item{}
		}, true},
	}
	for _, tc := range cases {
		a, b := equalSample(), equalSample()
		if !a.Equal(b) {
			t.Fatal("two builds of the sample differ")
		}
		tc.edit(b)
		if got := a.Equal(b); got != tc.equal {
			t.Errorf("%s: Equal = %v, want %v", tc.name, got, tc.equal)
		}
		if got := b.Equal(a); got != tc.equal {
			t.Errorf("%s (reversed): Equal = %v, want %v", tc.name, got, tc.equal)
		}
	}
	if g := equalSample(); !g.Equal(g) || g.Equal(nil) {
		t.Error("Equal mishandles identity or nil")
	}
}
