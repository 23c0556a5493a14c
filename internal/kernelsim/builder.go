package kernelsim

import (
	"fmt"
	"sync"

	"visualinux/internal/ctypes"
	"visualinux/internal/mem"
	"visualinux/internal/target"
)

// Address-space layout of the simulated kernel, mirroring x86_64 Linux.
const (
	arenaBase   = 0xffff_8880_0000_0000 // direct map: all allocations
	vmemmapBase = 0xffff_ea00_0000_0000 // struct page array
	textBase    = 0xffff_ffff_8100_0000 // kernel text: fake function addresses
	pageShift   = 12
	pageSize    = 1 << pageShift
)

// Builder allocates and wires kernel objects in simulated memory.
type Builder struct {
	Mem   *mem.Memory
	Tgt   *target.Sim
	Reg   *ctypes.Registry
	next  uint64 // arena bump pointer
	text  uint64 // next fake function address
	pfn   uint64 // next free page frame number
	funcs map[string]uint64
}

var (
	sharedRegOnce sync.Once
	sharedReg     *ctypes.Registry
)

// SharedRegistry returns the process-wide kernel type registry, built on
// first use. The registry is immutable after RegisterTypes (lookups are
// read-only and pointer derivation is atomic), so every kernel — and every
// session on top of one — can share a single copy instead of re-declaring
// the full type catalog per Build.
func SharedRegistry() *ctypes.Registry {
	sharedRegOnce.Do(func() {
		sharedReg = RegisterTypes(ctypes.NewRegistry())
	})
	return sharedReg
}

// NewBuilder creates an empty simulated kernel image.
func NewBuilder() *Builder {
	m := mem.New()
	reg := SharedRegistry()
	b := &Builder{
		Mem:   m,
		Tgt:   target.NewSim(m, reg),
		Reg:   reg,
		next:  arenaBase,
		text:  textBase,
		pfn:   1, // pfn 0 reserved
		funcs: make(map[string]uint64),
	}
	return b
}

// Obj is a handle to an allocated kernel object: address + static type.
type Obj struct {
	B    *Builder
	Addr uint64
	Type *ctypes.Type
}

// IsNil reports whether the handle is empty.
func (o Obj) IsNil() bool { return o.B == nil || o.Addr == 0 }

// AllocRaw reserves size bytes with the given alignment in the arena.
func (b *Builder) AllocRaw(size, align uint64) uint64 {
	if align == 0 {
		align = 8
	}
	b.next = (b.next + align - 1) &^ (align - 1)
	addr := b.next
	b.next += size
	// Touch the range so reads of never-written fields see zeroes instead
	// of unmapped errors (the kernel zeroes most allocations too).
	b.Mem.Write(addr, make([]byte, size))
	return addr
}

// Alloc allocates a zeroed object of the named type.
func (b *Builder) Alloc(typeName string) Obj {
	t := b.Reg.MustLookup(typeName)
	return Obj{B: b, Addr: b.AllocRaw(t.Size(), t.Align()), Type: t}
}

// AllocAligned allocates with an explicit alignment (e.g. 256 for maple
// nodes whose pointers carry type tags in the low bits).
func (b *Builder) AllocAligned(typeName string, align uint64) Obj {
	t := b.Reg.MustLookup(typeName)
	return Obj{B: b, Addr: b.AllocRaw(t.Size(), align), Type: t}
}

// AllocArray allocates a zeroed array of n objects of the named type and
// returns the handle of element 0.
func (b *Builder) AllocArray(typeName string, n uint64) Obj {
	t := b.Reg.MustLookup(typeName)
	return Obj{B: b, Addr: b.AllocRaw(t.Size()*n, t.Align()), Type: t}
}

// CString allocates a NUL-terminated string in the arena and returns its
// address.
func (b *Builder) CString(s string) uint64 {
	addr := b.AllocRaw(uint64(len(s)+1), 1)
	b.Mem.WriteCString(addr, s)
	return addr
}

// Func returns a stable fake text address for the named kernel function,
// registering it as a symbol so the fptr decorator can resolve it back.
func (b *Builder) Func(name string) uint64 {
	if a, ok := b.funcs[name]; ok {
		return a
	}
	a := b.text
	b.text += 16
	b.funcs[name] = a
	b.Tgt.AddSymbol(name, a, ctypes.FuncType)
	return a
}

// Symbol registers obj as the global symbol name.
func (b *Builder) Symbol(name string, obj Obj) {
	b.Tgt.AddSymbol(name, obj.Addr, obj.Type)
}

// SymbolAddr registers a raw typed address as a global symbol.
func (b *Builder) SymbolAddr(name string, addr uint64, typ *ctypes.Type) {
	b.Tgt.AddSymbol(name, addr, typ)
}

// At returns a handle viewing addr as the named type.
func (b *Builder) At(typeName string, addr uint64) Obj {
	return Obj{B: b, Addr: addr, Type: b.Reg.MustLookup(typeName)}
}

// --- page frames ---------------------------------------------------------------

// AllocPage reserves a page frame and returns its struct page handle in the
// vmemmap (allocating the page struct lazily) plus the frame's direct-map
// data address.
func (b *Builder) AllocPage() (pg Obj, data uint64) {
	pfn := b.pfn
	b.pfn++
	pageT := b.Reg.MustLookup("page")
	addr := vmemmapBase + pfn*pageT.Size()
	b.Mem.Write(addr, make([]byte, pageT.Size()))
	data = arenaBase + (0x4000_0000_0000 + pfn<<pageShift) // fake direct-map slot
	b.Mem.Write(data, make([]byte, pageSize))
	return Obj{B: b, Addr: addr, Type: pageT}, data
}

// --- typed field access -----------------------------------------------------------

func (o Obj) field(path string) ctypes.Field {
	f, err := o.Type.ResolvePath(path)
	if err != nil {
		panic(fmt.Sprintf("kernelsim: %v", err))
	}
	return f
}

// FieldAddr returns the address of a (possibly nested, dot-separated)
// member. The path must not cross pointers.
func (o Obj) FieldAddr(path string) uint64 {
	return o.Addr + o.field(path).Offset
}

// Field returns a handle to a nested member.
func (o Obj) Field(path string) Obj {
	f := o.field(path)
	return Obj{B: o.B, Addr: o.Addr + f.Offset, Type: f.Type}
}

// Index returns element i when o designates an array (or an object placed
// in an allocated array).
func (o Obj) Index(i uint64) Obj {
	t := o.Type.Strip()
	et := t
	if t.Kind == ctypes.KindArray {
		et = t.Elem
	}
	return Obj{B: o.B, Addr: o.Addr + i*et.Size(), Type: et}
}

// Set writes a scalar member (sized by the field type, bitfields honored).
func (o Obj) Set(path string, v uint64) {
	f := o.field(path)
	addr := o.Addr + f.Offset
	sz := f.Type.Size()
	if f.IsBitfield() {
		old := o.B.readUint(addr, sz)
		mask := uint64((1<<f.BitSize)-1) << f.BitOffset
		o.B.writeUint(addr, sz, (old&^mask)|((v<<f.BitOffset)&mask))
		return
	}
	if st := f.Type.Strip(); st.Kind == ctypes.KindStruct || st.Kind == ctypes.KindUnion || st.Kind == ctypes.KindArray {
		panic(fmt.Sprintf("kernelsim: Set(%q) on aggregate %s", path, f.Type))
	}
	o.B.writeUint(addr, sz, v)
}

// SetObj stores a pointer to target into the member at path.
func (o Obj) SetObj(path string, tgt Obj) { o.Set(path, tgt.Addr) }

// Get reads a scalar member.
func (o Obj) Get(path string) uint64 {
	f := o.field(path)
	addr := o.Addr + f.Offset
	v := o.B.readUint(addr, f.Type.Size())
	if f.IsBitfield() {
		v = (v >> f.BitOffset) & ((1 << f.BitSize) - 1)
	}
	return v
}

// SetStr writes s into an in-object char array member (truncating to fit).
func (o Obj) SetStr(path string, s string) {
	f := o.field(path)
	t := f.Type.Strip()
	if t.Kind != ctypes.KindArray {
		panic(fmt.Sprintf("kernelsim: SetStr(%q) on non-array %s", path, f.Type))
	}
	n := int(t.Count)
	if len(s) >= n {
		s = s[:n-1]
	}
	buf := make([]byte, n)
	copy(buf, s)
	o.B.Mem.Write(o.Addr+f.Offset, buf)
}

// SetStrPtr allocates s in the arena and stores its address in the char*
// member at path.
func (o Obj) SetStrPtr(path string, s string) {
	o.Set(path, o.B.CString(s))
}

func (b *Builder) readUint(addr, size uint64) uint64 {
	v, err := target.ReadUint(b.Tgt, addr, size)
	if err != nil {
		panic(fmt.Sprintf("kernelsim: read %#x: %v", addr, err))
	}
	return v
}

func (b *Builder) writeUint(addr, size, v uint64) {
	switch size {
	case 1:
		b.Mem.WriteU8(addr, uint8(v))
	case 2:
		b.Mem.WriteU16(addr, uint16(v))
	case 4:
		b.Mem.WriteU32(addr, uint32(v))
	case 8:
		b.Mem.WriteU64(addr, v)
	default:
		panic(fmt.Sprintf("kernelsim: bad scalar size %d", size))
	}
}

// --- intrusive containers -----------------------------------------------------------

// InitList makes the list_head at addr an empty circular list.
func (b *Builder) InitList(addr uint64) {
	b.Mem.WriteU64(addr, addr)   // next
	b.Mem.WriteU64(addr+8, addr) // prev
}

// ListAddTail links the list_head at node before the head at head
// (i.e. appends to the tail), like list_add_tail.
func (b *Builder) ListAddTail(head, node uint64) {
	prev, _ := b.Mem.ReadU64(head + 8)
	// node.next = head; node.prev = prev
	b.Mem.WriteU64(node, head)
	b.Mem.WriteU64(node+8, prev)
	// prev.next = node; head.prev = node
	b.Mem.WriteU64(prev, node)
	b.Mem.WriteU64(head+8, node)
}

// ListDel unlinks the list_head at node, like list_del.
func (b *Builder) ListDel(node uint64) {
	next, _ := b.Mem.ReadU64(node)
	prev, _ := b.Mem.ReadU64(node + 8)
	b.Mem.WriteU64(prev, next)
	b.Mem.WriteU64(next+8, prev)
	// Poison like the kernel does.
	b.Mem.WriteU64(node, 0xdead000000000100)
	b.Mem.WriteU64(node+8, 0xdead000000000122)
}

// HListAddHead links the hlist_node at node at the front of the hlist_head
// at head, like hlist_add_head.
func (b *Builder) HListAddHead(head, node uint64) {
	first, _ := b.Mem.ReadU64(head)
	b.Mem.WriteU64(node, first)  // node.next = first
	b.Mem.WriteU64(node+8, head) // node.pprev = &head.first
	if first != 0 {
		b.Mem.WriteU64(first+8, node) // first.pprev = &node.next
	}
	b.Mem.WriteU64(head, node) // head.first = node
}

// --- red-black trees -----------------------------------------------------------------

// rb_node layout: __rb_parent_color at +0, rb_right +8, rb_left +16.
// Color bit 0: 0 = red, 1 = black (Linux convention).

// BuildRBTree links the given rb_node addresses (already sorted by key)
// into a balanced red-black tree rooted at the rb_root at rootAddr. Nodes
// at the deepest level are colored red, all others black, which satisfies
// the red-black invariants for a height-balanced tree built this way.
// If cachedLeftmost is true, rootAddr is treated as rb_root_cached and the
// leftmost pointer (at rootAddr+8) is set too.
func (b *Builder) BuildRBTree(rootAddr uint64, nodes []uint64, cachedLeftmost bool) {
	maxDepth := 0
	var measure func(lo, hi, d int)
	measure = func(lo, hi, d int) {
		if lo >= hi {
			return
		}
		if d > maxDepth {
			maxDepth = d
		}
		mid := (lo + hi) / 2
		measure(lo, mid, d+1)
		measure(mid+1, hi, d+1)
	}
	measure(0, len(nodes), 1)

	var build func(lo, hi int, parent uint64, d int) uint64
	build = func(lo, hi int, parent uint64, d int) uint64 {
		if lo >= hi {
			return 0
		}
		mid := (lo + hi) / 2
		n := nodes[mid]
		color := uint64(1) // black
		if d == maxDepth {
			color = 0 // red leaves at the deepest level
		}
		b.Mem.WriteU64(n, parent|color)
		left := build(lo, mid, n, d+1)
		right := build(mid+1, hi, n, d+1)
		b.Mem.WriteU64(n+8, right)
		b.Mem.WriteU64(n+16, left)
		return n
	}
	root := build(0, len(nodes), 0, 1)
	if root != 0 {
		// The root is always black (a single-node tree would otherwise be
		// a red root).
		pc, _ := b.Mem.ReadU64(root)
		b.Mem.WriteU64(root, pc|1)
	}
	b.Mem.WriteU64(rootAddr, root)
	if cachedLeftmost {
		lm := uint64(0)
		if len(nodes) > 0 {
			lm = nodes[0]
		}
		b.Mem.WriteU64(rootAddr+8, lm)
	}
}
