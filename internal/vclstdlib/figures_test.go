package vclstdlib_test

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"visualinux/internal/expr"
	"visualinux/internal/graph"
	"visualinux/internal/kernelsim"
	"visualinux/internal/render"
	"visualinux/internal/vclstdlib"
	"visualinux/internal/viewcl"
	"visualinux/internal/viewql"
)

func newInterp(t testing.TB, k *kernelsim.Kernel) *viewcl.Interp {
	env := expr.NewEnv(k.Target())
	kernelsim.RegisterHelpers(env)
	in := viewcl.New(env)
	for id, set := range kernelsim.FlagSets() {
		var fl []viewcl.Flag
		for _, b := range set {
			fl = append(fl, viewcl.Flag{Mask: b.Mask, Name: b.Name})
		}
		in.Flags[id] = fl
	}
	return in
}

// minBoxes is the plausibility floor per figure: each plot must extract at
// least this many boxes from the simulated kernel.
var minBoxes = map[string]int{
	"3-4": 15, "3-6": 10, "4-5": 17, "6-1": 20, "7-1": 5,
	"8-2": 10, "8-4": 20, "9-2": 10, "11-1": 5, "12-3": 5,
	"13-3": 7, "14-3": 8, "15-1": 10, "16-2": 4, "17-1": 4,
	"17-6": 3, "19-1/2": 10, "workqueue": 10, "proc2vfs": 10,
	"socketconn": 10,
}

func TestAllFiguresExtract(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	for _, fig := range vclstdlib.Figures() {
		fig := fig
		t.Run(fig.ID, func(t *testing.T) {
			in := newInterp(t, k)
			res, err := in.RunSource(fig.ID, fig.Program)
			if err != nil {
				t.Fatalf("figure %s: %v", fig.ID, err)
			}
			for _, e := range res.Errors {
				t.Errorf("figure %s extraction issue: %v", fig.ID, e)
			}
			g := res.Graph
			if len(g.Boxes) < minBoxes[fig.ID] {
				t.Errorf("figure %s: only %d boxes (want >= %d)\n%s",
					fig.ID, len(g.Boxes), minBoxes[fig.ID],
					typeHistogram(g))
			}
			if g.RootID == "" {
				t.Errorf("figure %s: no root", fig.ID)
			}
			// The plot must render without panicking and mention the root.
			txt := render.Text(g)
			if !strings.Contains(txt, "==") {
				t.Errorf("figure %s: empty rendering", fig.ID)
			}
			// DOT and JSON forms must be producible too.
			if dot := render.DOT(g); !strings.HasPrefix(dot, "digraph") {
				t.Errorf("figure %s: bad dot", fig.ID)
			}
			if j := render.ToJSON(g); len(j.Boxes) != len(g.Boxes) {
				t.Errorf("figure %s: json lost boxes", fig.ID)
			}
		})
	}
}

// TestTable3Objectives applies each figure's reference ViewQL and checks it
// changes the visualization (the Table 3 usability claims).
func TestTable3Objectives(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	for _, fig := range vclstdlib.Figures() {
		if fig.Objective == nil {
			continue
		}
		fig := fig
		t.Run(fig.ID, func(t *testing.T) {
			in := newInterp(t, k)
			res, err := in.RunSource(fig.ID, fig.Program)
			if err != nil {
				t.Fatalf("extract: %v", err)
			}
			g := res.Graph
			before := countAttrs(g)
			eng := viewql.NewEngine(g)
			if err := eng.Apply(fig.Objective.ViewQL); err != nil {
				t.Fatalf("objective ViewQL: %v", err)
			}
			after := countAttrs(g)
			if after == before {
				t.Errorf("objective had no effect (attrs %d -> %d)", before, after)
			}
		})
	}
}

// typeHistogram lists a graph's box counts by type (the label when a box
// has no type), sorted by key, as "key:count key:count ...".
func typeHistogram(g *graph.Graph) string {
	h := make(map[string]int)
	for _, b := range g.Boxes {
		key := b.TypeName
		if key == "" {
			key = b.Label
		}
		h[key]++
	}
	var parts []string
	for _, k := range slices.Sorted(maps.Keys(h)) {
		parts = append(parts, fmt.Sprintf("%s:%d", k, h[k]))
	}
	return strings.Join(parts, " ")
}

func countAttrs(g *graph.Graph) int {
	n := 0
	for _, b := range g.All() {
		n += len(b.Attrs)
		for _, vn := range b.ViewSeq {
			for _, it := range b.Views[vn].Items {
				n += len(it.Attrs)
			}
		}
	}
	return n
}

func TestFigureLOCWithinPaperBallpark(t *testing.T) {
	// Our self-contained programs should be within a sane factor of the
	// paper's per-figure LOC (same order of magnitude of effort).
	for _, fig := range vclstdlib.Figures() {
		loc := fig.LOC()
		if loc < 5 {
			t.Errorf("figure %s: suspiciously small program (%d LOC)", fig.ID, loc)
		}
		if fig.PaperLOC > 0 && loc > fig.PaperLOC*3 {
			t.Errorf("figure %s: %d LOC vs paper's %d — too far off", fig.ID, loc, fig.PaperLOC)
		}
	}
}

func TestMapleTreeCaseStudy(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	in := newInterp(t, k)
	res, err := in.RunSource("maple", vclstdlib.MapleTreeProgram)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	g := res.Graph
	nodes := g.ByType("maple_node")
	if len(nodes) < 2 {
		t.Fatalf("maple tree too small: %d nodes", len(nodes))
	}
	vmas := g.ByType("vm_area_struct")
	if len(vmas) < 5 {
		t.Fatalf("too few VMAs: %d", len(vmas))
	}
	// Fig 4 customization: collapse slots, trim writable areas.
	eng := viewql.NewEngine(g)
	if err := eng.Apply(vclstdlib.MapleTreeCustomization); err != nil {
		t.Fatalf("customize: %v", err)
	}
	vis := render.Visible(g)
	for _, b := range vmas {
		w, _ := b.Member("is_writable")
		if w.Raw != 0 && vis[b.ID] {
			t.Errorf("writable VMA %s still visible", b.ID)
		}
		if w.Raw == 0 && !vis[b.ID] {
			t.Errorf("read-only VMA %s hidden", b.ID)
		}
	}
	// The distilled address-space view keeps VMAs sorted by vm_start.
	var mmBox *graph.Box
	for _, b := range g.ByType("mm_struct") {
		mmBox = b
	}
	if mmBox == nil {
		t.Fatal("no mm box")
	}
	space, ok := mmBox.Member("mm_addr_space")
	if !ok {
		t.Fatal("no distilled address space")
	}
	var prev uint64
	count := 0
	for _, id := range space.Elems {
		if id == "" {
			continue
		}
		b, _ := g.Get(id)
		st, _ := b.Member("vm_start")
		if st.Raw < prev {
			t.Errorf("distilled VMA list out of order at %s", id)
		}
		prev = st.Raw
		count++
	}
	if count != len(vmas) {
		t.Errorf("distilled list has %d VMAs, tree has %d", count, len(vmas))
	}
}

func TestStackRotCaseStudy(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	in := newInterp(t, k)
	res, err := in.RunSource("stackrot", vclstdlib.StackRotProgram)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	g := res.Graph
	if len(g.Roots) != 2 {
		t.Fatalf("want 2 roots (mm + rcu), got %d", len(g.Roots))
	}
	// The dying node must be reachable from BOTH roots: through the tree
	// and through the RCU callback list (the UAF signature).
	dying := graph.BoxID("MapleLeaf", k.StackRotNode.Addr)
	fromMM := g.Reachable([]string{g.Roots[0]})
	fromRCU := g.Reachable([]string{g.Roots[1]})
	if !fromMM[dying] {
		t.Errorf("dying node not in the maple tree plot")
	}
	if !fromRCU[dying] {
		t.Errorf("dying node not reachable from the RCU list")
	}
	// The rcu callback must be labeled mt_free_rcu.
	found := false
	for _, b := range g.ByType("rcu_head") {
		if f, ok := b.Member("func"); ok && f.Value == "mt_free_rcu" {
			found = true
		}
	}
	if !found {
		t.Errorf("no mt_free_rcu callback box")
	}
	// Lock state: two readers hold mmap_lock.
	for _, b := range g.ByType("mm_struct") {
		r, _ := b.Member("mmap_lock_readers")
		if r.Raw != 2 {
			t.Errorf("mmap_lock readers = %d, want 2", r.Raw)
		}
	}
}

func TestDirtyPipeCaseStudy(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	in := newInterp(t, k)
	res, err := in.RunSource("dirtypipe", vclstdlib.DirtyPipeProgram)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	g := res.Graph
	// Before customization: many pages visible.
	visBefore := 0
	for _, b := range g.ByType("page") {
		if render.Visible(g)[b.ID] {
			visBefore++
		}
	}
	eng := viewql.NewEngine(g)
	if err := eng.Apply(vclstdlib.DirtyPipeCustomization); err != nil {
		t.Fatalf("customize: %v", err)
	}
	vis := render.Visible(g)
	// After: the shared page must remain, the anon pipe page must be gone.
	shared := graph.BoxID("PageBox", k.SharedPage.Addr)
	if !vis[shared] {
		t.Fatalf("shared page trimmed away")
	}
	trimmedPipePages := 0
	for _, b := range g.ByType("page") {
		if b.Trimmed() {
			trimmedPipePages++
		}
	}
	if trimmedPipePages == 0 {
		t.Errorf("no pipe-only pages trimmed")
	}
	// The buggy buffer shows CAN_MERGE.
	foundBug := false
	for _, b := range g.ByType("pipe_buffer") {
		fl, _ := b.Member("flags")
		pg, _ := b.Member("page")
		if strings.Contains(fl.Value, "PIPE_BUF_FLAG_CAN_MERGE") && pg.TargetID == shared {
			foundBug = true
		}
	}
	if !foundBug {
		t.Errorf("CAN_MERGE flag on the shared page's buffer not visualized")
	}
}

func TestQuickstart(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	in := newInterp(t, k)
	res, err := in.RunSource("quickstart", vclstdlib.QuickstartProgram)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	g := res.Graph
	eng := viewql.NewEngine(g)
	if err := eng.Apply(vclstdlib.QuickstartCustomization); err != nil {
		t.Fatalf("customize: %v", err)
	}
	// pid 100 and its children stay expanded; everything else collapses.
	for _, b := range g.ByType("task_struct") {
		pid, _ := b.Member("pid")
		ppid, _ := b.Member("ppid")
		keep := pid.Raw == 100 || ppid.Raw == 100
		if keep && b.Collapsed() {
			t.Errorf("pid %d collapsed", pid.Raw)
		}
		if !keep && !b.Collapsed() {
			t.Errorf("pid %d not collapsed", pid.Raw)
		}
	}
	_ = k
}
