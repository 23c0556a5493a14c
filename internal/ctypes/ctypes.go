// Package ctypes implements a C type system: base types, pointers, arrays,
// structs, unions, enums, typedefs and bitfields, with sizeof/alignof/
// offsetof computation following the System V x86_64 ABI rules (natural
// alignment, no packing). It is the repository's stand-in for DWARF debug
// info: the kernel simulator declares Linux struct layouts here, and the
// expression evaluator resolves member accesses against them, exactly as GDB
// resolves them against DWARF.
package ctypes

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Kind discriminates the type shapes.
type Kind int

// Type kinds.
const (
	KindVoid Kind = iota
	KindInt       // integer of Size bytes, Signed or not
	KindBool
	KindFloat
	KindPointer
	KindArray
	KindStruct
	KindUnion
	KindEnum
	KindTypedef
	KindFunc // function type; only meaningful behind a pointer
)

func (k Kind) String() string {
	switch k {
	case KindVoid:
		return "void"
	case KindInt:
		return "int"
	case KindBool:
		return "bool"
	case KindFloat:
		return "float"
	case KindPointer:
		return "pointer"
	case KindArray:
		return "array"
	case KindStruct:
		return "struct"
	case KindUnion:
		return "union"
	case KindEnum:
		return "enum"
	case KindTypedef:
		return "typedef"
	case KindFunc:
		return "func"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// PointerSize is the target pointer width (64-bit guest).
const PointerSize = 8

// Field is a struct or union member.
type Field struct {
	Name   string
	Type   *Type
	Offset uint64 // byte offset from the start of the enclosing aggregate
	// Bitfield description; BitSize == 0 means a plain (non-bit) field.
	BitOffset uint32 // bit offset within the storage unit at Offset
	BitSize   uint32
}

// IsBitfield reports whether the field is a C bitfield.
func (f *Field) IsBitfield() bool { return f.BitSize != 0 }

// EnumVal is one enumerator of an enum type.
type EnumVal struct {
	Name  string
	Value int64
}

// Type describes a C type. Types are immutable once built; share freely.
type Type struct {
	Kind   Kind
	Name   string // tag or typedef name; "" for anonymous/derived types
	size   uint64
	align  uint64
	Signed bool // KindInt
	Elem   *Type
	Count  uint64 // KindArray
	Fields []Field
	Enums  []EnumVal
	Base   *Type // KindTypedef underlying type

	// Cached pointer-to-this. Atomic because types are shared across
	// concurrent extraction workers, which derive pointer types on demand.
	ptrTo atomic.Pointer[Type]
}

// Size returns sizeof(t) in bytes.
func (t *Type) Size() uint64 { return t.size }

// Align returns alignof(t) in bytes.
func (t *Type) Align() uint64 {
	if t.align == 0 {
		return 1
	}
	return t.align
}

// Strip removes typedef layers, returning the underlying type.
func (t *Type) Strip() *Type {
	for t != nil && t.Kind == KindTypedef {
		t = t.Base
	}
	return t
}

// IsInteger reports whether the stripped type is an integer-like scalar
// (int, bool, enum). Pointers are not integers, though they convert.
func (t *Type) IsInteger() bool {
	s := t.Strip()
	if s == nil {
		return false
	}
	switch s.Kind {
	case KindInt, KindBool, KindEnum:
		return true
	}
	return false
}

// IsPointer reports whether the stripped type is a pointer.
func (t *Type) IsPointer() bool {
	s := t.Strip()
	return s != nil && s.Kind == KindPointer
}

// String renders a C-ish spelling of the type.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case KindVoid:
		return "void"
	case KindInt:
		if t.Name != "" {
			return t.Name
		}
		sign := "u"
		if t.Signed {
			sign = "s"
		}
		return fmt.Sprintf("%sint%d", sign, t.size*8)
	case KindBool:
		return "bool"
	case KindFloat:
		if t.size == 4 {
			return "float"
		}
		return "double"
	case KindPointer:
		return t.Elem.String() + " *"
	case KindArray:
		return fmt.Sprintf("%s[%d]", t.Elem.String(), t.Count)
	case KindStruct:
		if t.Name != "" {
			return "struct " + t.Name
		}
		return "struct <anon>"
	case KindUnion:
		if t.Name != "" {
			return "union " + t.Name
		}
		return "union <anon>"
	case KindEnum:
		if t.Name != "" {
			return "enum " + t.Name
		}
		return "enum <anon>"
	case KindTypedef:
		return t.Name
	case KindFunc:
		return "func()"
	}
	return "<?>"
}

// PointerTo returns the (cached) pointer type to t. The cache keeps one
// canonical pointer type per pointee even under concurrent derivation.
func (t *Type) PointerTo() *Type {
	if p := t.ptrTo.Load(); p != nil {
		return p
	}
	p := &Type{Kind: KindPointer, size: PointerSize, align: PointerSize, Elem: t}
	if t.ptrTo.CompareAndSwap(nil, p) {
		return p
	}
	return t.ptrTo.Load()
}

// ArrayOf returns a fresh array type of n elements of t.
func (t *Type) ArrayOf(n uint64) *Type {
	return &Type{Kind: KindArray, size: t.size * n, align: t.Align(), Elem: t, Count: n}
}

// FieldByName finds a direct member, descending into anonymous struct/union
// members the way C name lookup does. The returned offset is relative to t.
func (t *Type) FieldByName(name string) (Field, bool) {
	s := t.Strip()
	if s == nil || (s.Kind != KindStruct && s.Kind != KindUnion) {
		return Field{}, false
	}
	for _, f := range s.Fields {
		if f.Name == name {
			return f, true
		}
	}
	// Anonymous members: lift their fields.
	for _, f := range s.Fields {
		if f.Name != "" {
			continue
		}
		if inner, ok := f.Type.FieldByName(name); ok {
			inner.Offset += f.Offset
			return inner, true
		}
	}
	return Field{}, false
}

// ResolvePath resolves a dot-separated member path ("se.vruntime") starting
// from t, auto-dereferencing pointers between components exactly like
// ViewCL's flatten operator. It returns the accumulated byte offset relative
// to the start of t (counting only offsets after the last dereference is the
// caller's concern; see Deref below) — for layouts with no intermediate
// pointers the offset is directly usable. For paths that cross pointers, use
// expr evaluation instead; this helper rejects them.
func (t *Type) ResolvePath(path string) (Field, error) {
	parts := strings.Split(path, ".")
	cur := t
	var total uint64
	var last Field
	for i, p := range parts {
		s := cur.Strip()
		if s.Kind == KindPointer {
			return Field{}, fmt.Errorf("ctypes: path %q crosses a pointer at %q; evaluate via expr", path, strings.Join(parts[:i], "."))
		}
		f, ok := cur.FieldByName(p)
		if !ok {
			return Field{}, fmt.Errorf("ctypes: %s has no member %q (path %q)", cur, p, path)
		}
		total += f.Offset
		last = f
		cur = f.Type
	}
	last.Offset = total
	return last, nil
}

// --- constructors -----------------------------------------------------------

// Void is the void type (size 0).
var Void = &Type{Kind: KindVoid, size: 0, align: 1, Name: "void"}

// VoidPtr is void*.
var VoidPtr = Void.PointerTo()

// Int returns an integer type of the given byte size and signedness with an
// optional display name.
func Int(name string, size uint64, signed bool) *Type {
	return &Type{Kind: KindInt, Name: name, size: size, align: size, Signed: signed}
}

// Bool8 is a one-byte boolean (_Bool).
var Bool8 = &Type{Kind: KindBool, Name: "bool", size: 1, align: 1}

// FuncType is the generic function type used behind function pointers.
var FuncType = &Type{Kind: KindFunc, Name: "func", size: 1, align: 1}

// FuncPtr is a generic function pointer type.
var FuncPtr = FuncType.PointerTo()

// NewEnum builds an enum type (4 bytes, as on Linux).
func NewEnum(name string, vals ...EnumVal) *Type {
	return &Type{Kind: KindEnum, Name: name, size: 4, align: 4, Signed: true, Enums: vals}
}

// EnumName returns the enumerator name for value v, or "" if none matches.
func (t *Type) EnumName(v int64) string {
	s := t.Strip()
	if s == nil || s.Kind != KindEnum {
		return ""
	}
	for _, e := range s.Enums {
		if e.Value == v {
			return e.Name
		}
	}
	return ""
}

// EnumValue returns the numeric value of enumerator name.
func (t *Type) EnumValue(name string) (int64, bool) {
	s := t.Strip()
	if s == nil || s.Kind != KindEnum {
		return 0, false
	}
	for _, e := range s.Enums {
		if e.Name == name {
			return e.Value, true
		}
	}
	return 0, false
}

// Typedef creates a named alias of base.
func Typedef(name string, base *Type) *Type {
	return &Type{Kind: KindTypedef, Name: name, size: base.size, align: base.align, Base: base}
}

// FieldSpec declares one member for StructOf/UnionOf. A zero BitSize means a
// plain field. Name "" declares an anonymous struct/union member.
type FieldSpec struct {
	Name    string
	Type    *Type
	BitSize uint32 // optional bitfield width in bits
}

// F is shorthand for a plain FieldSpec.
func F(name string, t *Type) FieldSpec { return FieldSpec{Name: name, Type: t} }

// BF is shorthand for a bitfield FieldSpec.
func BF(name string, t *Type, bits uint32) FieldSpec {
	return FieldSpec{Name: name, Type: t, BitSize: bits}
}

// StructOf lays out a struct with natural alignment: each member is placed at
// the next offset aligned to its alignment; consecutive bitfields of the same
// storage size pack into shared units. Total size is rounded up to the max
// member alignment.
func StructOf(name string, specs ...FieldSpec) *Type {
	t := &Type{Kind: KindStruct, Name: name, align: 1}
	var off uint64
	bitUnitOff := ^uint64(0) // offset of the open bitfield storage unit
	var bitPos uint32        // next free bit within the unit
	var bitUnitSize uint64
	for _, sp := range specs {
		ft := sp.Type
		a := ft.Align()
		if a > t.align {
			t.align = a
		}
		if sp.BitSize > 0 {
			sz := ft.Size()
			// Open a new unit if none is open, the storage size differs, or
			// the field does not fit in the remaining bits.
			if bitUnitOff == ^uint64(0) || bitUnitSize != sz || uint64(bitPos+sp.BitSize) > sz*8 {
				off = align(off, a)
				bitUnitOff = off
				bitUnitSize = sz
				bitPos = 0
				off += sz
			}
			t.Fields = append(t.Fields, Field{Name: sp.Name, Type: ft, Offset: bitUnitOff, BitOffset: bitPos, BitSize: sp.BitSize})
			bitPos += sp.BitSize
			continue
		}
		bitUnitOff = ^uint64(0)
		off = align(off, a)
		t.Fields = append(t.Fields, Field{Name: sp.Name, Type: ft, Offset: off})
		off += ft.Size()
	}
	t.size = align(off, t.align)
	return t
}

// UnionOf lays out a union: all members at offset 0, size = max member size
// rounded to max alignment.
func UnionOf(name string, specs ...FieldSpec) *Type {
	t := &Type{Kind: KindUnion, Name: name, align: 1}
	for _, sp := range specs {
		ft := sp.Type
		if a := ft.Align(); a > t.align {
			t.align = a
		}
		if s := ft.Size(); s > t.size {
			t.size = s
		}
		t.Fields = append(t.Fields, Field{Name: sp.Name, Type: ft})
	}
	t.size = align(t.size, t.align)
	return t
}

// NewShell creates an incomplete (forward-declared) struct type so that
// mutually recursive structures can hold pointers to each other before
// their layouts are complete — the C forward declaration.
func NewShell(name string) *Type {
	return &Type{Kind: KindStruct, Name: name, align: 1}
}

// Complete fills a shell struct in place with the given members, computing
// the layout like StructOf. It returns the receiver for chaining.
func (t *Type) Complete(specs ...FieldSpec) *Type {
	tmp := StructOf(t.Name, specs...)
	t.Kind = KindStruct
	t.Fields = tmp.Fields
	t.size = tmp.size
	t.align = tmp.align
	return t
}

// CompleteUnion fills a shell in place as a union.
func (t *Type) CompleteUnion(specs ...FieldSpec) *Type {
	tmp := UnionOf(t.Name, specs...)
	t.Kind = KindUnion
	t.Fields = tmp.Fields
	t.size = tmp.size
	t.align = tmp.align
	return t
}

func align(off, a uint64) uint64 {
	if a == 0 {
		return off
	}
	return (off + a - 1) &^ (a - 1)
}

// --- registry ----------------------------------------------------------------

// Registry maps type names to types, playing the role of a DWARF type index.
// Struct/union tags and typedef names share one namespace here (the kernel
// typedefs most tags anyway, and ViewCL's Box<task_struct> spelling omits
// the keyword).
type Registry struct {
	types map[string]*Type
}

// NewRegistry returns a registry pre-populated with the standard C and Linux
// fixed-width base types.
func NewRegistry() *Registry {
	r := &Registry{types: make(map[string]*Type)}
	base := []*Type{
		Void,
		Bool8,
		Int("char", 1, true),
		Int("signed char", 1, true),
		Int("unsigned char", 1, false),
		Int("short", 2, true),
		Int("unsigned short", 2, false),
		Int("int", 4, true),
		Int("unsigned int", 4, false),
		Int("long", 8, true),
		Int("unsigned long", 8, false),
		Int("long long", 8, true),
		Int("unsigned long long", 8, false),
		Int("u8", 1, false), Int("s8", 1, true),
		Int("u16", 2, false), Int("s16", 2, true),
		Int("u32", 4, false), Int("s32", 4, true),
		Int("u64", 8, false), Int("s64", 8, true),
		Int("size_t", 8, false), Int("ssize_t", 8, true),
		Int("pid_t", 4, true),
		Int("uid_t", 4, false), Int("gid_t", 4, false),
		Int("gfp_t", 4, false),
		Int("dev_t", 4, false),
		Int("loff_t", 8, true),
		Int("sector_t", 8, false),
		Int("time64_t", 8, true),
		Int("atomic_t", 4, true),
		Int("atomic64_t", 8, true),
		Int("atomic_long_t", 8, true),
		Int("uintptr_t", 8, false),
	}
	for _, t := range base {
		r.types[t.Name] = t
	}
	return r
}

// Register adds t under t.Name, replacing any previous definition (the
// kernel build registers each type once; replacement keeps tests simple).
func (r *Registry) Register(t *Type) *Type {
	if t.Name == "" {
		panic("ctypes: cannot register anonymous type")
	}
	r.types[t.Name] = t
	return t
}

// Lookup finds a type by name. The optional "struct "/"union "/"enum "
// keyword prefixes are accepted and ignored, and a trailing "*" (possibly
// repeated) derives pointer types, so "struct task_struct *" works.
func (r *Registry) Lookup(name string) (*Type, bool) {
	name = strings.TrimSpace(name)
	stars := 0
	for strings.HasSuffix(name, "*") {
		name = strings.TrimSpace(strings.TrimSuffix(name, "*"))
		stars++
	}
	for _, kw := range []string{"struct ", "union ", "enum "} {
		if strings.HasPrefix(name, kw) {
			name = strings.TrimSpace(strings.TrimPrefix(name, kw))
			break
		}
	}
	t, ok := r.types[name]
	if !ok {
		return nil, false
	}
	for i := 0; i < stars; i++ {
		t = t.PointerTo()
	}
	return t, true
}

// MustLookup is Lookup that panics on a missing type; for build-time wiring.
func (r *Registry) MustLookup(name string) *Type {
	t, ok := r.Lookup(name)
	if !ok {
		panic(fmt.Sprintf("ctypes: unknown type %q", name))
	}
	return t
}

// EnumeratorValue searches all registered enums for an enumerator called
// name, mirroring C's flat enumerator namespace. Used by ${maple_leaf_64}
// style expressions.
func (r *Registry) EnumeratorValue(name string) (int64, *Type, bool) {
	for _, t := range r.types {
		if t.Kind != KindEnum {
			continue
		}
		if v, ok := t.EnumValue(name); ok {
			return v, t, true
		}
	}
	return 0, nil, false
}
