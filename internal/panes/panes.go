// Package panes implements the paper's pane-based debugger front-end model
// (§2.4): a tmux-like tree of panes, each displaying an object graph.
// Primary panes show ViewCL-extracted graphs that ViewQL can refine;
// secondary panes display a focused selection picked from another pane.
// Panes over the same extraction share box objects, so a refinement is
// visible wherever the object is displayed ("linked views").
package panes

import (
	"fmt"
	"sort"
	"strings"

	"visualinux/internal/graph"
	"visualinux/internal/viewql"
)

// Kind distinguishes primary from secondary panes.
type Kind int

// Pane kinds.
const (
	Primary Kind = iota
	Secondary
)

func (k Kind) String() string {
	if k == Secondary {
		return "secondary"
	}
	return "primary"
}

// Orientation of a split.
type Orientation int

// Split orientations.
const (
	Horizontal Orientation = iota
	Vertical
)

// Pane is one display surface.
type Pane struct {
	ID     int
	Kind   Kind
	Title  string
	Graph  *graph.Graph
	Engine *viewql.Engine
	// Selection holds the box IDs a secondary pane focuses on.
	Selection []string
	// Version counts content changes (initially 1, bumped by
	// Tree.Update, which callers reach only with a graph that differs from
	// the displayed one). Together with the tree epoch it keys pane ETags: an
	// unchanged version+epoch means the rendered bytes are unchanged, so
	// the server can answer 304 instead of re-serializing.
	Version int
}

// node is the split-tree structure.
type node struct {
	pane   *Pane // leaf
	orient Orientation
	kids   []*node
}

// Tree is the pane tree of one debugging session.
type Tree struct {
	root   *node
	panes  map[int]*Pane
	byNode map[int]*node
	nextID int
	// epoch counts cross-pane attribute mutations (ViewQL refinements,
	// expands, vchat). Panes share box objects, so a refinement applied to
	// one pane can change what another renders without touching its
	// Version; the epoch folds that into every pane's ETag.
	epoch int
}

// NewTree creates a tree with one primary pane displaying g.
func NewTree(title string, g *graph.Graph) (*Tree, *Pane) {
	t := &Tree{panes: make(map[int]*Pane), byNode: make(map[int]*node), nextID: 1}
	p := t.newPane(Primary, title, g)
	n := &node{pane: p}
	t.root = n
	t.byNode[p.ID] = n
	return t, p
}

func (t *Tree) newPane(kind Kind, title string, g *graph.Graph) *Pane {
	p := &Pane{ID: t.nextID, Kind: kind, Title: title, Graph: g, Engine: viewql.NewEngine(g), Version: 1}
	t.nextID++
	t.panes[p.ID] = p
	return p
}

// ReserveIDs ensures every future pane allocates an ID strictly greater
// than max. Session import replays a saved state whose pane numbering may
// have gaps; without the reservation a later split could re-issue an ID a
// client still holds from the saved session — clobbering the server's
// serialization cache and any stream subscription filtered on that pane.
func (t *Tree) ReserveIDs(max int) {
	if t.nextID <= max {
		t.nextID = max + 1
	}
}

// Epoch reports the cross-pane mutation counter.
func (t *Tree) Epoch() int { return t.epoch }

// BumpEpoch records a mutation of shared display state (box attributes)
// outside the Refine path, e.g. a direct Engine.Apply or an expand.
func (t *Tree) BumpEpoch() { t.epoch++ }

// Update replaces a pane's content with a freshly extracted graph, bumping
// its version: the incremental re-extraction path. Callers pass only a
// graph whose content differs from the displayed one (graph.Equal), so the
// version moves only when the content moves. The pane keeps its
// identity and screen position; a fresh ViewQL engine is installed since
// named sets reference the superseded graph's boxes. Secondary panes carved
// from the old graph keep displaying the boxes they captured.
func (t *Tree) Update(paneID int, g *graph.Graph) error {
	p, ok := t.panes[paneID]
	if !ok {
		return fmt.Errorf("panes: no pane %d", paneID)
	}
	p.Graph = g
	p.Engine = viewql.NewEngine(g)
	p.Version++
	return nil
}

// Pane looks up a pane by ID.
func (t *Tree) Pane(id int) (*Pane, bool) {
	p, ok := t.panes[id]
	return p, ok
}

// Panes returns all panes ordered by ID.
func (t *Tree) Panes() []*Pane {
	out := make([]*Pane, 0, len(t.panes))
	for _, p := range t.panes {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Split divides the pane's screen area, creating a new primary pane
// showing g (which may be the same graph for a second perspective).
func (t *Tree) Split(paneID int, o Orientation, title string, g *graph.Graph) (*Pane, error) {
	n, ok := t.byNode[paneID]
	if !ok {
		return nil, fmt.Errorf("panes: no pane %d", paneID)
	}
	p := t.newPane(Primary, title, g)
	leafOld := &node{pane: n.pane}
	leafNew := &node{pane: p}
	t.byNode[n.pane.ID] = leafOld
	t.byNode[p.ID] = leafNew
	n.pane = nil
	n.orient = o
	n.kids = []*node{leafOld, leafNew}
	return p, nil
}

// SelectInto creates a secondary pane displaying the given selection from
// the source pane (paper op 2: "Select a set of objects from a pane to
// create a new secondary pane"). The secondary pane shares the underlying
// boxes.
func (t *Tree) SelectInto(srcID int, refs []viewql.Ref, title string) (*Pane, error) {
	src, ok := t.panes[srcID]
	if !ok {
		return nil, fmt.Errorf("panes: no pane %d", srcID)
	}
	sub := graph.New(title)
	var sel []string
	for _, r := range refs {
		if r.Member != "" {
			continue
		}
		if b, ok := src.Graph.Get(r.BoxID); ok {
			sub.Add(b) // shared box: linked panes
			sel = append(sel, b.ID)
		}
	}
	if len(sel) > 0 {
		sub.RootID = sel[0]
		sub.Roots = sel
	}
	// Secondary panes also carry every box reachable from the selection so
	// links render; visibility rules still apply.
	for id := range src.Graph.Reachable(sel) {
		if b, ok := src.Graph.Get(id); ok {
			sub.Add(b)
		}
	}
	p := t.newPane(Secondary, title, sub)
	p.Selection = sel
	// Secondary panes attach as a vertical split of the source.
	if n, ok := t.byNode[srcID]; ok && n.pane != nil {
		leafOld := &node{pane: n.pane}
		leafNew := &node{pane: p}
		t.byNode[srcID] = leafOld
		t.byNode[p.ID] = leafNew
		n.pane = nil
		n.orient = Vertical
		n.kids = []*node{leafOld, leafNew}
	} else {
		t.byNode[p.ID] = &node{pane: p}
	}
	return p, nil
}

// Refine applies a ViewQL program to the pane's graph (paper op 3).
// Refinements mutate shared boxes, so the tree epoch advances even though
// no pane's Version does.
func (t *Tree) Refine(paneID int, viewqlSrc string) error {
	p, ok := t.panes[paneID]
	if !ok {
		return fmt.Errorf("panes: no pane %d", paneID)
	}
	t.epoch++
	return p.Engine.Apply(viewqlSrc)
}

// FocusHit reports one match of a focus search.
type FocusHit struct {
	PaneID int
	BoxID  string
}

// Focus searches every pane's displayed graph for boxes matching pred (the
// paper's cross-pane "focus" operation, Fig 2): e.g. the same task found in
// the parent tree and in the scheduling tree simultaneously.
func (t *Tree) Focus(pred func(*graph.Box) bool) []FocusHit {
	var hits []FocusHit
	for _, p := range t.Panes() {
		for _, b := range p.Graph.All() {
			if pred(b) {
				hits = append(hits, FocusHit{PaneID: p.ID, BoxID: b.ID})
			}
		}
	}
	return hits
}

// FocusAddr finds boxes by object address.
func (t *Tree) FocusAddr(addr uint64) []FocusHit {
	return t.Focus(func(b *graph.Box) bool { return b.Addr == addr && b.Addr != 0 })
}

// FocusMember finds boxes whose member renders to the given text or raw
// value (e.g. pid == 107 in every pane).
func (t *Tree) FocusMember(member, value string, raw uint64, byRaw bool) []FocusHit {
	return t.Focus(func(b *graph.Box) bool {
		it, ok := b.Member(member)
		if !ok {
			return false
		}
		if byRaw {
			return it.Raw == raw
		}
		return it.Value == value
	})
}

// Layout renders the split tree as indented text (the CLI's pane list).
func (t *Tree) Layout() string {
	var sb strings.Builder
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		ind := strings.Repeat("  ", depth)
		if n.pane != nil {
			fmt.Fprintf(&sb, "%s- pane %d (%s) %q: %s\n", ind, n.pane.ID, n.pane.Kind, n.pane.Title, n.pane.Graph.Summary())
			return
		}
		o := "hsplit"
		if n.orient == Vertical {
			o = "vsplit"
		}
		fmt.Fprintf(&sb, "%s+ %s\n", ind, o)
		for _, k := range n.kids {
			walk(k, depth+1)
		}
	}
	if t.root != nil {
		walk(t.root, 0)
	}
	return sb.String()
}
