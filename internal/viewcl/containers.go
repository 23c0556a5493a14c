package viewcl

import (
	"errors"
	"fmt"
	"strconv"

	"visualinux/internal/ctypes"
	"visualinux/internal/expr"
	"visualinux/internal/graph"
	"visualinux/internal/target"
)

// Builtin container converters (the paper's "standard library" / distill
// operators, §2.2 item 3). Each converter walks a kernel container shape
// through the target and yields a sequence of element values; an optional
// forEach closure maps every element to a box (NULL yields keep their slot,
// preserving positional layouts like maple node slot arrays).

// elemHint describes the embedding element of a pointer-chasing container
// walk: each node address the walk yields lives inside an element of `size`
// bytes starting `off` bytes before it. When on, the iterator prefetches the
// whole element per hop, so the snapshot coalesces the walk's link-word fill
// with the later materialization fill into one link transaction whenever the
// element straddles page boundaries.
type elemHint struct {
	off  uint64
	size uint64
	on   bool
}

// prefetchElem pulls the whole embedding element before the iterator touches
// its link word: the pointer read that follows then hits the same coalesced
// fill instead of issuing its own.
func (r *runState) prefetchElem(h elemHint, addr uint64) {
	if !h.on || addr == 0 || addr < h.off {
		return
	}
	target.Prefetch(r.tgt(), addr-h.off, h.size)
	if r.in.Obs != nil {
		r.in.Obs.PrefetchHints.Inc()
	}
}

// batchPrefetch coalesces the fills for every element a container walk
// yielded into merged page runs before materialization touches them one by
// one. Per-hop prefetch (prefetchElem) can only see one element at a time —
// the walk discovers addresses sequentially — but once iterate returns, the
// full element set is known, so adjacent elements' pages merge into single
// link transactions and unmapped holes are clipped out instead of failing a
// whole multi-page fill. Elements cover the lvalue kinds per-hop prefetch
// never touched (Array, PipeRing) as well as hinted pointer-chasing walks.
func (r *runState) batchPrefetch(hint elemHint, elems []expr.Value) {
	if !r.in.PrefetchHints || len(elems) < 2 {
		return
	}
	ranges := make([]target.Range, 0, len(elems))
	for _, el := range elems {
		switch {
		case el.HasAddr && el.Type != nil && el.Type.Size() > 0:
			ranges = append(ranges, target.Range{Addr: el.Addr, Size: el.Type.Size()})
		case hint.on && el.Type != nil && el.Type.IsPointer() && el.Bits != 0 && el.Bits >= hint.off:
			ranges = append(ranges, target.Range{Addr: el.Bits - hint.off, Size: hint.size})
		}
	}
	if len(ranges) == 0 {
		return
	}
	// No counter bump here: the snapshot layer counts actual batch fill
	// runs (vl_batch_prefetch_runs_total); resident ranges cost nothing.
	target.PrefetchBatch(r.tgt(), ranges)
}

// cellBox wraps a raw scalar element as a small virtual box. Cells count
// against the object budget like every other box.
func (r *runState) cellBox(v expr.Value, idx int, env *expr.Env) (vval, error) {
	if len(r.g.Boxes) >= r.in.MaxObjects {
		return vval{}, fmt.Errorf("viewcl: object budget exceeded (%d boxes)", r.in.MaxObjects)
	}
	id := "cell#" + strconv.Itoa(r.nextVboxN())
	text, raw, isNum, isStr := r.in.decorate(v, nil, env)
	b := r.g.NewBoxIn(id, "cell", "", 0)
	vs := r.allocViews(1)
	items := r.allocItems(1)
	items[0] = graph.Item{Kind: graph.ItemText, Name: "[" + strconv.Itoa(idx) + "]",
		Value: text, Raw: raw, IsNum: isNum, IsStr: isStr}
	vs[0] = graph.View{Name: "default", Items: items}
	b.AddView(&vs[0])
	r.g.Add(b)
	return vval{kind: vBox, boxID: id}, nil
}

// iterateKind walks a container shape over already-evaluated arguments,
// with the element hint computed once at lowering time (staticHint).
func (r *runState) iterateKind(kind string, args []expr.Value, line int, hint elemHint) ([]expr.Value, error) {
	switch kind {
	case "List":
		return r.iterList(args[0], line, hint)
	case "HList":
		return r.iterHList(args[0], line, hint)
	case "RBTree":
		return r.iterRBTree(args[0], line, hint)
	case "Array":
		return r.iterArray(args, line)
	case "XArray":
		return r.iterXArray(args[0], line)
	case "PipeRing":
		return r.iterPipeRing(args[0], line)
	}
	return nil, errf(line, "unknown container kind %q", kind)
}

// headAddr finds the address designated by a head argument: an lvalue's
// location or a pointer's target.
func headAddr(v expr.Value) (uint64, error) {
	if v.HasAddr {
		return v.Addr, nil
	}
	if v.Type != nil && v.Type.IsPointer() {
		return v.Bits, nil
	}
	return 0, fmt.Errorf("container head must be an object or pointer, got %s", v)
}

// iterList walks a circular doubly-linked list_head, yielding each node
// pointer (excluding the head itself).
func (r *runState) iterList(head expr.Value, line int, hint elemHint) ([]expr.Value, error) {
	tgt := r.tgt()
	hd, err := headAddr(head)
	if err != nil {
		return nil, errf(line, "List: %v", err)
	}
	lh := r.in.Env.Types().MustLookup("list_head")
	var out []expr.Value
	cur, err := target.ReadU64(tgt, hd)
	if err != nil {
		return nil, errf(line, "List: %v", err)
	}
	loop := loopCheck{tort: cur, power: 1}
	for cur != hd && cur != 0 {
		if len(out) >= r.in.MaxElems {
			r.notef(line, "List truncated at %d elements", r.in.MaxElems)
			break
		}
		// Poisoned pointers (freed nodes) end the walk.
		if cur>>32 == 0xdead0000 {
			break
		}
		r.prefetchElem(hint, cur)
		out = append(out, expr.MakePointer(lh, cur))
		cur, err = target.ReadU64(tgt, cur)
		if err != nil {
			return nil, errf(line, "List: %v", err)
		}
		if loop.closed(cur) {
			var entry uint64
			out, entry = loop.unwind(out)
			r.notef(line, "List cycle at %#x", entry)
			break
		}
	}
	return out, nil
}

// iterHList walks an hlist (head.first -> node.next...).
func (r *runState) iterHList(head expr.Value, line int, hint elemHint) ([]expr.Value, error) {
	tgt := r.tgt()
	hd, err := headAddr(head)
	if err != nil {
		return nil, errf(line, "HList: %v", err)
	}
	node := r.in.Env.Types().MustLookup("hlist_node")
	var out []expr.Value
	cur, err := target.ReadU64(tgt, hd)
	if err != nil {
		return nil, errf(line, "HList: %v", err)
	}
	loop := loopCheck{tort: cur, power: 1}
	for cur != 0 {
		if len(out) >= r.in.MaxElems {
			r.notef(line, "HList truncated at %d elements", r.in.MaxElems)
			break
		}
		r.prefetchElem(hint, cur)
		out = append(out, expr.MakePointer(node, cur))
		cur, err = target.ReadU64(tgt, cur)
		if err != nil {
			return nil, errf(line, "HList: %v", err)
		}
		if loop.closed(cur) {
			var entry uint64
			out, entry = loop.unwind(out)
			r.notef(line, "HList cycle at %#x", entry)
			break
		}
	}
	return out, nil
}

// loopCheck is Brent's cycle detection for a pointer walk. A walk over
// corrupt memory can loop without ever coming back to its head; a visited
// set would find that too, but would cost an allocation per walk on every
// healthy list. Brent keeps one node (the tortoise) and moves it up to the
// walk's current node each time the steps taken since the last move reach
// the next power of two, so a loop is found within a few laps of entering it.
type loopCheck struct {
	tort  uint64 // a node the walk has reached
	power int    // steps after which the tortoise moves up
	lam   int    // steps since it last moved; the loop length once closed
}

// closed takes the walk's next node and reports whether the walk has come
// back to a node it already yielded.
func (c *loopCheck) closed(next uint64) bool {
	c.lam++
	if next == c.tort {
		return true
	}
	if c.lam == c.power {
		c.tort, c.power, c.lam = next, c.power*2, 0
	}
	return false
}

// unwind cuts a closed walk back to the nodes it yielded before its first
// repeat, so every node of the loop is plotted once, and returns the node
// the loop re-enters at.
func (c *loopCheck) unwind(out []expr.Value) ([]expr.Value, uint64) {
	for i := 0; i+c.lam < len(out); i++ {
		if out[i].Bits == out[i+c.lam].Bits {
			out = out[:i+c.lam]
			break
		}
	}
	return out, out[len(out)-c.lam].Bits
}

// iterRBTree in-order walks an rb_root / rb_root_cached / rb_node*.
func (r *runState) iterRBTree(root expr.Value, line int, hint elemHint) ([]expr.Value, error) {
	tgt := r.tgt()
	nodeT := r.in.Env.Types().MustLookup("rb_node")

	var rootNode uint64
	st := root.Type.Strip()
	switch {
	case root.HasAddr && st != nil && (st.Name == "rb_root" || st.Name == "rb_root_cached"):
		v, err := target.ReadU64(tgt, root.Addr)
		if err != nil {
			return nil, errf(line, "RBTree: %v", err)
		}
		rootNode = v
	case st != nil && st.Kind == ctypes.KindPointer:
		rootNode = root.Bits
		if el := st.Elem.Strip(); el != nil && (el.Name == "rb_root" || el.Name == "rb_root_cached") {
			v, err := target.ReadU64(tgt, root.Bits)
			if err != nil {
				return nil, errf(line, "RBTree: %v", err)
			}
			rootNode = v
		}
	case root.HasAddr:
		// Some other lvalue: assume its first word is the root pointer.
		v, err := target.ReadU64(tgt, root.Addr)
		if err != nil {
			return nil, errf(line, "RBTree: %v", err)
		}
		rootNode = v
	default:
		return nil, errf(line, "RBTree: cannot interpret root %s", root)
	}

	var out []expr.Value
	var walk func(addr uint64, depth int) error
	walk = func(addr uint64, depth int) error {
		if addr == 0 || len(out) >= r.in.MaxElems {
			return nil
		}
		if depth > maxRBDepth {
			r.notef(line, "RBTree cycle or corrupt depth at %#x", addr)
			return errRBDepth
		}
		r.prefetchElem(hint, addr)
		right, err := target.ReadU64(tgt, addr+8)
		if err != nil {
			return err
		}
		left, err := target.ReadU64(tgt, addr+16)
		if err != nil {
			return err
		}
		if err := walk(left, depth+1); err != nil {
			return err
		}
		out = append(out, expr.MakePointer(nodeT, addr))
		return walk(right, depth+1)
	}
	if err := walk(rootNode, 0); err != nil && !errors.Is(err, errRBDepth) {
		return nil, errf(line, "RBTree: %v", err)
	}
	return out, nil
}

// maxRBDepth bounds the RBTree walk's recursion. A red-black tree of n nodes
// is at most 2*log2(n+1) deep, so a valid tree of any size the target can
// hold stays far below it; a deeper walk is a cycle (a node linked as its own
// descendant) or a corrupt tree, and recursing on would overflow the stack.
const maxRBDepth = 128

// errRBDepth stops an RBTree walk at maxRBDepth, keeping what it has yielded.
var errRBDepth = errors.New("RBTree depth bound")

// iterArray yields elements of a fixed array lvalue, or ptr+count.
func (r *runState) iterArray(args []expr.Value, line int) ([]expr.Value, error) {
	a := args[0]
	st := a.Type.Strip()
	var base uint64
	var elem *ctypes.Type
	var count uint64
	switch {
	case st.Kind == ctypes.KindArray && a.HasAddr:
		base, elem, count = a.Addr, st.Elem, st.Count
		if len(args) >= 2 { // explicit count (flexible array members)
			count = args[1].Uint()
		}
	case st.Kind == ctypes.KindPointer:
		if len(args) < 2 {
			return nil, errf(line, "Array(ptr) needs a count argument")
		}
		base, elem, count = a.Bits, st.Elem, args[1].Uint()
	default:
		return nil, errf(line, "Array: unsupported argument %s", a)
	}
	if count > uint64(r.in.MaxElems) {
		r.notef(line, "Array truncated from %d to %d elements", count, r.in.MaxElems)
		count = uint64(r.in.MaxElems)
	}
	out := make([]expr.Value, 0, count)
	for i := uint64(0); i < count; i++ {
		out = append(out, expr.MakeLValue(elem, base+i*elem.Size()))
	}
	return out, nil
}

// xaChunkShift is XA_CHUNK_SHIFT: each xa_node level consumes 6 index bits.
const xaChunkShift = 6

// iterXArray walks an xarray in index order, yielding non-NULL entries as
// void* values (value entries stay tagged; callers untag via xa_to_value).
func (r *runState) iterXArray(xa expr.Value, line int) ([]expr.Value, error) {
	tgt := r.tgt()
	base, err := headAddr(xa)
	if err != nil {
		return nil, errf(line, "XArray: %v", err)
	}
	xaT := r.in.Env.Types().MustLookup("xarray")
	headF, _ := xaT.FieldByName("xa_head")
	head, err := target.ReadU64(tgt, base+headF.Offset)
	if err != nil {
		return nil, errf(line, "XArray: %v", err)
	}
	voidp := ctypes.VoidPtr
	var out []expr.Value
	if head == 0 {
		return out, nil
	}
	if head&3 != 2 || head <= 4096 {
		return []expr.Value{{Type: voidp, Bits: head}}, nil
	}
	nodeT := r.in.Env.Types().MustLookup("xa_node")
	slotsF, _ := nodeT.FieldByName("slots")
	shiftF, _ := nodeT.FieldByName("shift")
	// The kernel's invariant: a child node's shift is exactly its parent's
	// minus XA_CHUNK_SHIFT. Descending only while it holds bounds the walk's
	// depth by the root's shift, so a slot pointing back at its own node, or
	// any longer loop, stops at the first node that breaks it.
	var corrupt uint64
	var walk func(nodeAddr uint64, parentShift int) error
	walk = func(nodeAddr uint64, parentShift int) error {
		shift, err := target.ReadU8(tgt, nodeAddr+shiftF.Offset)
		if err != nil {
			return err
		}
		if parentShift >= 0 && int(shift) != parentShift-xaChunkShift {
			corrupt = nodeAddr
			return nil
		}
		nslots := slotsF.Type.Strip().Count
		for i := uint64(0); i < nslots; i++ {
			e, err := target.ReadU64(tgt, nodeAddr+slotsF.Offset+i*8)
			if err != nil {
				return err
			}
			if e == 0 {
				continue
			}
			if len(out) >= r.in.MaxElems {
				return nil
			}
			if shift > 0 && e&3 == 2 && e > 4096 {
				if err := walk(e-2, int(shift)); err != nil || corrupt != 0 {
					return err
				}
				continue
			}
			out = append(out, expr.Value{Type: voidp, Bits: e})
		}
		return nil
	}
	if err := walk(head-2, -1); err != nil {
		return nil, errf(line, "XArray: %v", err)
	}
	if corrupt != 0 {
		r.notef(line, "XArray cycle or corrupt shift at %#x", corrupt)
	}
	return out, nil
}

// iterPipeRing walks pipe_inode_info's occupied ring slots [tail, head).
func (r *runState) iterPipeRing(pipe expr.Value, line int) ([]expr.Value, error) {
	tgt := r.tgt()
	base, err := headAddr(pipe)
	if err != nil {
		return nil, errf(line, "PipeRing: %v", err)
	}
	pt := r.in.Env.Types().MustLookup("pipe_inode_info")
	get := func(field string) (uint64, error) {
		f, ok := pt.FieldByName(field)
		if !ok {
			return 0, fmt.Errorf("pipe_inode_info.%s missing", field)
		}
		return target.ReadUint(tgt, base+f.Offset, f.Type.Size())
	}
	head, err := get("head")
	if err != nil {
		return nil, errf(line, "PipeRing: %v", err)
	}
	tail, err := get("tail")
	if err != nil {
		return nil, errf(line, "PipeRing: %v", err)
	}
	ringSize, err := get("ring_size")
	if err != nil {
		return nil, errf(line, "PipeRing: %v", err)
	}
	bufs, err := get("bufs")
	if err != nil {
		return nil, errf(line, "PipeRing: %v", err)
	}
	if ringSize == 0 {
		return nil, nil
	}
	// Slots are indexed by masking with ring_size-1, which walks the wrong
	// slots unless ring_size is a power of two.
	if ringSize&(ringSize-1) != 0 {
		return nil, errf(line, "PipeRing ring_size %d not a power of two", ringSize)
	}
	// head and tail are free-running counters of the field's width.
	n := head - tail
	if hf, _ := pt.FieldByName("head"); hf.Type.Size() < 8 {
		n &= 1<<(8*hf.Type.Size()) - 1
	}
	if n > uint64(r.in.MaxElems) {
		r.notef(line, "PipeRing truncated at %d elements", r.in.MaxElems)
		n = uint64(r.in.MaxElems)
	}
	bufT := r.in.Env.Types().MustLookup("pipe_buffer")
	out := make([]expr.Value, 0, n)
	for i := uint64(0); i < n; i++ {
		slot := (tail + i) & (ringSize - 1)
		out = append(out, expr.MakeLValue(bufT, bufs+slot*bufT.Size()))
	}
	return out, nil
}

// selectFromVal implements Array.selectFrom(container, Type): walk the
// already-materialized subgraph under the container value in traversal
// order and collect all boxes of the given ViewCL type — the paper's
// distill of an ordered set (e.g. maple tree -> sorted VMA list).
func (r *runState) selectFromVal(src vval, boxType string, line int) (vval, error) {
	// The result comes from boxes already in the graph, not from bytes the
	// current frame read: a memo entry would replay a stale element list
	// after those boxes changed, so the frame is never reused.
	if n := len(r.frames); n > 0 {
		r.frames[n-1].taint()
	}
	var seeds []string
	switch src.kind {
	case vBox:
		seeds = []string{src.boxID}
	case vCont:
		for _, e := range src.elems {
			if e != "" {
				seeds = append(seeds, e)
			}
		}
	case vNull:
		return vval{kind: vCont}, nil
	default:
		return vval{}, errf(line, "selectFrom: source must be a box or container")
	}
	seen := map[string]bool{}
	var collected []string
	var dfs func(id string)
	dfs = func(id string) {
		if id == "" || seen[id] {
			return
		}
		seen[id] = true
		b, ok := r.g.Get(id)
		if !ok {
			return
		}
		if b.Label == boxType || b.TypeName == boxType {
			collected = append(collected, id)
		}
		// Follow every view's edges in declaration order to preserve the
		// container's logical order.
		for _, vn := range b.ViewSeq {
			for _, it := range b.Views[vn].Items {
				switch it.Kind {
				case graph.ItemLink, graph.ItemBox:
					dfs(it.TargetID)
				case graph.ItemContainer:
					for _, e := range it.Elems {
						dfs(e)
					}
				}
			}
		}
	}
	for _, s := range seeds {
		dfs(s)
	}
	return vval{kind: vCont, elems: collected}, nil
}
