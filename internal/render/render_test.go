package render_test

import (
	"encoding/json"
	"strings"
	"testing"

	"visualinux/internal/graph"
	"visualinux/internal/render"
)

// build constructs a small graph:
//
//	root -> a -> b
//	     -> c (container: [d, e])
func build() *graph.Graph {
	g := graph.New("test")
	mk := func(id string, items ...graph.Item) *graph.Box {
		b := graph.NewBox(id, id, "t", uint64(len(g.Boxes)+1)*0x100)
		b.AddView(&graph.View{Name: "default", Items: items})
		g.Add(b)
		return b
	}
	mk("b", graph.Item{Kind: graph.ItemText, Name: "v", Value: "2", Raw: 2, IsNum: true})
	mk("a",
		graph.Item{Kind: graph.ItemText, Name: "v", Value: "1", Raw: 1, IsNum: true},
		graph.Item{Kind: graph.ItemLink, Name: "next", TargetID: "b"})
	mk("d", graph.Item{Kind: graph.ItemText, Name: "v", Value: "4"})
	mk("e", graph.Item{Kind: graph.ItemText, Name: "v", Value: "5"})
	mk("c", graph.Item{Kind: graph.ItemContainer, Name: "elems", Elems: []string{"d", "", "e"}})
	mk("root",
		graph.Item{Kind: graph.ItemLink, Name: "a", TargetID: "a"},
		graph.Item{Kind: graph.ItemLink, Name: "c", TargetID: "c"})
	g.RootID = "root"
	g.Roots = []string{"root"}
	return g
}

func TestVisibleAll(t *testing.T) {
	g := build()
	vis := render.Visible(g)
	for _, id := range []string{"root", "a", "b", "c", "d", "e"} {
		if !vis[id] {
			t.Errorf("%s not visible", id)
		}
	}
}

func TestTrimmedHidesDescendants(t *testing.T) {
	g := build()
	ab, _ := g.Get("a")
	ab.SetAttr(graph.AttrTrimmed, "true")
	vis := render.Visible(g)
	if vis["a"] || vis["b"] {
		t.Errorf("trimmed subtree visible: a=%v b=%v", vis["a"], vis["b"])
	}
	if !vis["c"] || !vis["d"] {
		t.Errorf("sibling subtree lost")
	}
	// b is still reachable if something else links it — here it is not.
	txt := render.Text(g)
	if strings.Contains(txt, "| b ") {
		t.Errorf("trimmed box rendered")
	}
	if !strings.Contains(txt, "hidden by trim/collapse") {
		t.Errorf("hidden count not reported")
	}
}

func TestBoxCollapseHidesEdges(t *testing.T) {
	g := build()
	ab, _ := g.Get("a")
	ab.SetAttr(graph.AttrCollapsed, "true")
	vis := render.Visible(g)
	if !vis["a"] {
		t.Errorf("collapsed box itself must stay visible")
	}
	if vis["b"] {
		t.Errorf("collapsed box's edges should hide b")
	}
	txt := render.Text(g)
	if !strings.Contains(txt, "[+] a") {
		t.Errorf("collapse button missing:\n%s", txt)
	}
}

func TestItemCollapseKeepsEdges(t *testing.T) {
	g := build()
	cb, _ := g.Get("c")
	v := cb.CurrentView()
	v.Items[0].SetAttr(graph.AttrCollapsed, "true")
	vis := render.Visible(g)
	if !vis["d"] || !vis["e"] {
		t.Errorf("item collapse must keep elements visible (paper Fig 4)")
	}
	txt := render.Text(g)
	if !strings.Contains(txt, "[+2 collapsed]") {
		t.Errorf("collapsed container rendering:\n%s", txt)
	}
}

func TestViewAttributeSwitches(t *testing.T) {
	g := build()
	ab, _ := g.Get("a")
	ab.AddView(&graph.View{Name: "alt", Items: []graph.Item{
		{Kind: graph.ItemText, Name: "other", Value: "42"},
	}})
	ab.SetAttr(graph.AttrView, "alt")
	txt := render.Text(g)
	if !strings.Contains(txt, "other: 42") {
		t.Errorf("alt view not used")
	}
	if strings.Contains(txt, "next -> b") {
		t.Errorf("default view leaked")
	}
	// And b is no longer reachable since alt has no link.
	if render.Visible(g)["b"] {
		t.Errorf("b visible through hidden view")
	}
}

func TestDOTOutput(t *testing.T) {
	g := build()
	dot := render.DOT(g)
	if !strings.HasPrefix(dot, "digraph") || !strings.HasSuffix(strings.TrimSpace(dot), "}") {
		t.Fatalf("malformed dot:\n%s", dot)
	}
	for _, frag := range []string{`"root"`, `"a" [label=`, `-> "b"`, "style=dotted"} {
		if !strings.Contains(dot, frag) {
			t.Errorf("dot missing %q", frag)
		}
	}
}

func TestJSONRoundtrip(t *testing.T) {
	g := build()
	j := render.ToJSON(g)
	data, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	var back render.JSONGraph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != "test" || len(back.Boxes) != 6 || back.RootID != "root" {
		t.Errorf("roundtrip lost data: %+v", back)
	}
	found := false
	for _, b := range back.Boxes {
		if b.ID == "a" {
			found = true
			if len(b.Views) != 1 || len(b.Views[0].Items) != 2 {
				t.Errorf("box a items lost")
			}
			if !b.Visible {
				t.Errorf("a should be visible")
			}
		}
	}
	if !found {
		t.Errorf("box a missing")
	}
}

func TestNullLinkRendering(t *testing.T) {
	g := graph.New("nulls")
	b := graph.NewBox("x", "x", "t", 0x1)
	b.AddView(&graph.View{Name: "default", Items: []graph.Item{
		{Kind: graph.ItemLink, Name: "gone", TargetID: ""},
	}})
	g.Add(b)
	g.RootID = "x"
	txt := render.Text(g)
	if !strings.Contains(txt, "gone -> NULL") {
		t.Errorf("NULL link rendering:\n%s", txt)
	}
}
