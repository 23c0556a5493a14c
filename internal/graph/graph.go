// Package graph defines the simplified kernel object graph that ViewCL
// extraction produces and ViewQL customization operates on (the paper's
// G(V,E)): vertices are Boxes (objects, possibly virtual), edges are Links
// (pointer-derived relations). Boxes carry Views (alternative layouts) and
// display attributes (view/trimmed/collapsed/direction) that the renderer
// honors.
package graph

import (
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Well-known attribute names (paper §4.2).
const (
	AttrView      = "view"
	AttrTrimmed   = "trimmed"
	AttrCollapsed = "collapsed"
	AttrDirection = "direction"
)

// DefaultView is the view used when the view attribute is absent.
const DefaultView = "default"

// ItemKind discriminates view items.
type ItemKind int

// Item kinds.
const (
	ItemText ItemKind = iota
	ItemLink
	ItemContainer
	ItemBox // nested box, plotted inside the parent
)

func (k ItemKind) String() string {
	switch k {
	case ItemText:
		return "text"
	case ItemLink:
		return "link"
	case ItemContainer:
		return "container"
	case ItemBox:
		return "box"
	}
	return "?"
}

// Item is one member of a view: a Text (rendered string plus the raw value
// for ViewQL comparisons), a Link to another box, an embedded Container of
// boxes, or a nested Box.
type Item struct {
	Kind ItemKind
	Name string // member label, e.g. "pid" or "runqueue"

	// Text payload.
	Value string // rendered (decorated) text
	Raw   uint64 // raw scalar for WHERE comparisons
	IsNum bool   // Raw is meaningful
	IsStr bool   // Value is a true string (compare as string)

	// Link / nested box target (box ID; "" for NULL links).
	TargetID string

	// Container payload: ordered element box IDs ("" elements are NULL
	// slots kept for positional fidelity).
	Elems     []string
	Direction string // container plotting direction override

	// Attrs holds item-level display attributes (ViewQL can UPDATE a
	// member selection like "maple_node.slots" with collapsed: true).
	Attrs map[string]string
}

// SetAttr assigns an item-level attribute, allocating the map on demand;
// "false"/"" clears.
func (it *Item) SetAttr(key, value string) {
	if value == "" || value == "false" {
		delete(it.Attrs, key)
		return
	}
	if it.Attrs == nil {
		it.Attrs = make(map[string]string)
	}
	it.Attrs[key] = value
}

// Collapsed reports the item-level collapsed attribute.
func (it *Item) Collapsed() bool { return it.Attrs[AttrCollapsed] == "true" }

// View is a named layout of a box (paper §2.2).
type View struct {
	Name  string
	Items []Item
}

// Clone deep-copies the view, including per-item element slices and
// attribute maps (so ViewQL UPDATEs on one copy never leak into another).
func (v *View) Clone() *View {
	nv := &View{Name: v.Name, Items: make([]Item, len(v.Items))}
	copy(nv.Items, v.Items)
	for i := range nv.Items {
		if v.Items[i].Elems != nil {
			nv.Items[i].Elems = append([]string(nil), v.Items[i].Elems...)
		}
		if v.Items[i].Attrs != nil {
			attrs := make(map[string]string, len(v.Items[i].Attrs))
			for k, val := range v.Items[i].Attrs {
				attrs[k] = val
			}
			nv.Items[i].Attrs = attrs
		}
	}
	return nv
}

// Box is a vertex of the object graph. A box usually mirrors one kernel
// object (TypeName+Addr); virtual boxes (containers, synthesized wrappers)
// have Addr 0 or a synthetic label.
type Box struct {
	ID       string
	Label    string // ViewCL box-type name, e.g. "Task"
	TypeName string // C type name, e.g. "task_struct"; "" for virtual
	Addr     uint64
	Views    map[string]*View
	ViewSeq  []string          // view declaration order
	Attrs    map[string]string // display attributes
}

// NewBox constructs an empty box.
func NewBox(id, label, typeName string, addr uint64) *Box {
	// Attrs stays nil until the first SetAttr: most boxes never get display
	// attributes, and extraction builds boxes by the hundred per round.
	return &Box{
		ID: id, Label: label, TypeName: typeName, Addr: addr,
		Views: make(map[string]*View),
	}
}

// Clone deep-copies the box. The extraction memo keeps pristine clones of
// freshly built boxes and hands out further clones on reuse, so downstream
// ViewQL mutation of one run's output cannot corrupt the cache.
func (b *Box) Clone() *Box {
	nb := &Box{
		ID: b.ID, Label: b.Label, TypeName: b.TypeName, Addr: b.Addr,
		Views: make(map[string]*View, len(b.Views)),
	}
	if b.ViewSeq != nil {
		nb.ViewSeq = append([]string(nil), b.ViewSeq...)
	}
	for name, v := range b.Views {
		nb.Views[name] = v.Clone()
	}
	if len(b.Attrs) > 0 {
		nb.Attrs = make(map[string]string, len(b.Attrs))
		for k, v := range b.Attrs {
			nb.Attrs[k] = v
		}
	}
	return nb
}

// AddView installs a view, keeping declaration order.
func (b *Box) AddView(v *View) {
	if _, dup := b.Views[v.Name]; !dup {
		b.ViewSeq = append(b.ViewSeq, v.Name)
	}
	b.Views[v.Name] = v
}

// CurrentView resolves the active view per the view attribute, falling back
// to default, then to the first declared view.
func (b *Box) CurrentView() *View {
	name := b.Attrs[AttrView]
	if name == "" {
		name = DefaultView
	}
	if v, ok := b.Views[name]; ok {
		return v
	}
	if v, ok := b.Views[DefaultView]; ok {
		return v
	}
	if len(b.ViewSeq) > 0 {
		return b.Views[b.ViewSeq[0]]
	}
	return &View{Name: DefaultView}
}

// Trimmed reports the trimmed attribute.
func (b *Box) Trimmed() bool { return b.Attrs[AttrTrimmed] == "true" }

// Collapsed reports the collapsed attribute.
func (b *Box) Collapsed() bool { return b.Attrs[AttrCollapsed] == "true" }

// SetAttr assigns a display attribute ("false"/"" clears boolean attrs),
// allocating the map on demand.
func (b *Box) SetAttr(key, value string) {
	if value == "" || value == "false" {
		delete(b.Attrs, key)
		return
	}
	if b.Attrs == nil {
		b.Attrs = make(map[string]string)
	}
	b.Attrs[key] = value
}

// Member returns the named item from the box's current view, searching
// other views as a fallback (a WHERE clause may reference a field the
// active view hides).
func (b *Box) Member(name string) (Item, bool) {
	for _, it := range b.CurrentView().Items {
		if it.Name == name {
			return it, true
		}
	}
	for _, vn := range b.ViewSeq {
		for _, it := range b.Views[vn].Items {
			if it.Name == name {
				return it, true
			}
		}
	}
	return Item{}, false
}

// Stats summarizes an extraction for the performance harness (Table 4).
type Stats struct {
	Objects    int    // boxes extracted
	Bytes      uint64 // target bytes transferred during extraction
	Reads      uint64 // read transactions
	DurationNS int64  // extraction wall/virtual time
}

// Graph is the extracted object graph.
type Graph struct {
	Name   string
	RootID string   // primary root (first plot)
	Roots  []string // all plotted roots, in plot order
	Boxes  map[string]*Box
	Order  []string // insertion order for deterministic rendering
	Stats  Stats

	// arena is the current chunk of the graph-owned box store (NewBoxIn).
	// Full chunks are dropped from here but stay alive through the Boxes
	// pointers; a chunk is never reallocated, so handed-out *Box are stable.
	arena []Box
}

// New creates an empty graph.
func New(name string) *Graph {
	return &Graph{Name: name, Boxes: make(map[string]*Box)}
}

// NewSized creates an empty graph pre-sized for about n boxes, so repeated
// extractions of a known figure skip the map-rehash and order-slice growth
// of a cold build.
func NewSized(name string, n int) *Graph {
	if n <= 0 {
		return New(name)
	}
	return &Graph{
		Name:  name,
		Boxes: make(map[string]*Box, n),
		Order: make([]string, 0, n),
		arena: make([]Box, 0, n),
	}
}

// boxChunk is the arena fallback granularity: small, because a correctly
// pre-sized graph (NewSized) never overflows its first chunk, and an unsized
// one shouldn't hold a page of dead boxes per small graph.
const boxChunk = 16

// NewBoxIn allocates a box owned by the graph, carved from its chunked
// arena — one allocation per boxChunk boxes instead of one per box. The box
// lives exactly as long as the graph, which is what every extraction run
// wants; use NewBox for a box with independent lifetime (memo clones).
func (g *Graph) NewBoxIn(id, label, typeName string, addr uint64) *Box {
	if len(g.arena) == cap(g.arena) {
		g.arena = make([]Box, 0, boxChunk)
	}
	g.arena = append(g.arena, Box{
		ID: id, Label: label, TypeName: typeName, Addr: addr,
		Views: make(map[string]*View),
	})
	return &g.arena[len(g.arena)-1]
}

// Equal reports whether g and o display the same content: every field the
// serializers and ViewQL read — name, roots, box order, and per box its
// identity, views, view order and attributes down to each item's raw value
// and flags. Stats is ignored: it describes how a graph was extracted, not
// what it shows. A nil slice or map equals an empty one, as the JSON
// encoder writes both the same. The walk allocates nothing, so an
// incremental round can afford it for every re-extracted figure.
func (g *Graph) Equal(o *Graph) bool {
	if g == o {
		return true
	}
	if g == nil || o == nil {
		return false
	}
	if g.Name != o.Name || g.RootID != o.RootID ||
		!slices.Equal(g.Roots, o.Roots) || !slices.Equal(g.Order, o.Order) ||
		len(g.Boxes) != len(o.Boxes) {
		return false
	}
	for id, b := range g.Boxes {
		ob, ok := o.Boxes[id]
		if !ok || !b.equal(ob) {
			return false
		}
	}
	return true
}

func (b *Box) equal(o *Box) bool {
	if b == o {
		return true
	}
	if b.ID != o.ID || b.Label != o.Label || b.TypeName != o.TypeName || b.Addr != o.Addr ||
		!slices.Equal(b.ViewSeq, o.ViewSeq) || !maps.Equal(b.Attrs, o.Attrs) ||
		len(b.Views) != len(o.Views) {
		return false
	}
	for name, v := range b.Views {
		ov, ok := o.Views[name]
		if !ok || !v.equal(ov) {
			return false
		}
	}
	return true
}

func (v *View) equal(o *View) bool {
	if v == o {
		return true
	}
	if v.Name != o.Name || len(v.Items) != len(o.Items) {
		return false
	}
	for i := range v.Items {
		if !v.Items[i].equal(&o.Items[i]) {
			return false
		}
	}
	return true
}

func (it *Item) equal(o *Item) bool {
	return it.Kind == o.Kind && it.Name == o.Name && it.Value == o.Value && it.Raw == o.Raw &&
		it.IsNum == o.IsNum && it.IsStr == o.IsStr && it.TargetID == o.TargetID &&
		it.Direction == o.Direction && slices.Equal(it.Elems, o.Elems) && maps.Equal(it.Attrs, o.Attrs)
}

// BoxID builds the canonical box identifier for a typed object.
func BoxID(label string, addr uint64) string {
	// Hand-rolled "%s@0x%x": one ID per box built makes this a measurable
	// fraction of extraction allocations under fmt.
	var tmp [16]byte
	var sb strings.Builder
	sb.Grow(len(label) + 3 + 16)
	sb.WriteString(label)
	sb.WriteString("@0x")
	sb.Write(strconv.AppendUint(tmp[:0], addr, 16))
	return sb.String()
}

// Add inserts a box (no-op if the ID is already present) and returns the
// canonical instance.
func (g *Graph) Add(b *Box) *Box {
	if exist, ok := g.Boxes[b.ID]; ok {
		return exist
	}
	g.Boxes[b.ID] = b
	g.Order = append(g.Order, b.ID)
	return b
}

// Get looks up a box by ID.
func (g *Graph) Get(id string) (*Box, bool) {
	b, ok := g.Boxes[id]
	return b, ok
}

// ByType returns all boxes whose TypeName or Label equals name, in
// insertion order. ViewQL's "SELECT task_struct FROM *".
func (g *Graph) ByType(name string) []*Box {
	var out []*Box
	for _, id := range g.Order {
		b := g.Boxes[id]
		if b.TypeName == name || b.Label == name {
			out = append(out, b)
		}
	}
	return out
}

// All returns every box in insertion order.
func (g *Graph) All() []*Box {
	out := make([]*Box, 0, len(g.Order))
	for _, id := range g.Order {
		out = append(out, g.Boxes[id])
	}
	return out
}

// Neighbors returns the box IDs directly referenced by b's current view
// (links, containers, nested boxes).
func (g *Graph) Neighbors(b *Box) []string {
	var out []string
	for _, it := range b.CurrentView().Items {
		switch it.Kind {
		case ItemLink, ItemBox:
			if it.TargetID != "" {
				out = append(out, it.TargetID)
			}
		case ItemContainer:
			for _, e := range it.Elems {
				if e != "" {
					out = append(out, e)
				}
			}
		}
	}
	return out
}

// Reachable computes the set of box IDs reachable from the given seeds
// (inclusive) following current-view edges. ViewQL's REACHABLE(v).
func (g *Graph) Reachable(seeds []string) map[string]bool {
	seen := make(map[string]bool)
	stack := append([]string(nil), seeds...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		b, ok := g.Boxes[id]
		if !ok {
			continue
		}
		seen[id] = true
		stack = append(stack, g.Neighbors(b)...)
	}
	return seen
}

// Types returns the distinct TypeNames present, sorted.
func (g *Graph) Types() []string {
	set := map[string]bool{}
	for _, b := range g.Boxes {
		if b.TypeName != "" {
			set[b.TypeName] = true
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Summary renders a one-line description, for logs and the pane list:
// "<name>: <n> boxes, <n> types, root=<id>". It counts the distinct
// TypeNames without listing or sorting them, as Types would.
func (g *Graph) Summary() string {
	types := make(map[string]struct{})
	for _, b := range g.Boxes {
		if b.TypeName != "" {
			types[b.TypeName] = struct{}{}
		}
	}
	s := make([]byte, 0, 64)
	s = append(s, g.Name...)
	s = append(s, ": "...)
	s = strconv.AppendInt(s, int64(len(g.Boxes)), 10)
	s = append(s, " boxes, "...)
	s = strconv.AppendInt(s, int64(len(types)), 10)
	s = append(s, " types, root="...)
	s = append(s, g.RootID...)
	return string(s)
}

// ParseBoxAddr extracts the address from a canonical box ID; 0 if the ID is
// not canonical.
func ParseBoxAddr(id string) uint64 {
	i := strings.LastIndex(id, "@0x")
	if i < 0 {
		return 0
	}
	v, err := strconv.ParseUint(id[i+3:], 16, 64)
	if err != nil {
		return 0
	}
	return v
}
