// Package expr implements a C expression parser and evaluator over a debug
// target. It is the stand-in for GDB's expression engine: ViewCL's ${...}
// escapes are parsed and evaluated here, including member access across
// pointers, casts, array indexing, arithmetic, comparisons, and calls into a
// registry of helper functions (the analogue of the paper's ~500 lines of
// GDB scripts exposing static-inline kernel functions).
package expr

import (
	"fmt"

	"visualinux/internal/ctypes"
	"visualinux/internal/target"
)

// Value is the result of evaluating an expression. A Value is either
//
//   - a scalar rvalue: Type + Bits (integers, enums, bools, pointers);
//   - an lvalue: an object living in target memory at Addr with Type
//     (structs, unions, arrays — and scalars before rvalue conversion);
//   - a synthetic string produced by a helper function (IsStr).
type Value struct {
	Type    *ctypes.Type
	Bits    uint64 // scalar payload (sign-extended for signed types)
	Addr    uint64 // location for lvalues
	HasAddr bool
	Str     string
	IsStr   bool
}

// MakeInt builds an integer rvalue of the given type.
func MakeInt(t *ctypes.Type, v uint64) Value { return Value{Type: t, Bits: v} }

// MakeBool builds a boolean rvalue.
func MakeBool(b bool) Value {
	var v uint64
	if b {
		v = 1
	}
	return Value{Type: ctypes.Bool8, Bits: v}
}

// MakePointer builds a pointer rvalue of type elem*.
func MakePointer(elem *ctypes.Type, addr uint64) Value {
	return Value{Type: elem.PointerTo(), Bits: addr}
}

// MakeLValue builds an lvalue designating an object of type t at addr.
func MakeLValue(t *ctypes.Type, addr uint64) Value {
	return Value{Type: t, Addr: addr, HasAddr: true}
}

// MakeString builds a synthetic string value.
func MakeString(s string) Value { return Value{IsStr: true, Str: s} }

// Uint returns the scalar payload as unsigned.
func (v Value) Uint() uint64 { return v.Bits }

// Int returns the scalar payload as signed, sign-extending from the value's
// type width.
func (v Value) Int() int64 {
	t := v.Type.Strip()
	if t == nil {
		return int64(v.Bits)
	}
	sz := t.Size()
	if sz == 0 || sz >= 8 {
		return int64(v.Bits)
	}
	shift := (8 - sz) * 8
	return int64(v.Bits<<shift) >> shift
}

// Bool interprets the value as a C truth value.
func (v Value) Bool() bool {
	if v.IsStr {
		return v.Str != ""
	}
	return v.Bits != 0
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch {
	case v.IsStr:
		return fmt.Sprintf("%q", v.Str)
	case v.HasAddr:
		return fmt.Sprintf("(%s) @%#x", v.Type, v.Addr)
	case v.Type != nil && v.Type.IsPointer():
		return fmt.Sprintf("(%s) %#x", v.Type, v.Bits)
	case v.Type != nil && v.Type.Strip() != nil && v.Type.Strip().Signed:
		return fmt.Sprintf("%d", v.Int())
	default:
		return fmt.Sprintf("%d", v.Bits)
	}
}

// Func is a helper function callable from expressions, the analogue of the
// paper's GDB-script-exposed kernel functions (cpu_rq, mte_to_node, ...).
type Func func(env *Env, args []Value) (Value, error)

// Env is the evaluation environment: the target plus helper functions and
// spliced ViewCL variables (@name).
type Env struct {
	Target target.Target
	Funcs  map[string]Func
	Vars   map[string]Value
	// Resolver, when set, is consulted for @name references missing from
	// Vars. ViewCL installs its lexical scope chain here so where-clause
	// bindings are forced lazily on first ${...} reference.
	Resolver func(name string) (Value, bool)
}

// NewEnv builds an environment over t with empty tables.
func NewEnv(t target.Target) *Env {
	return &Env{Target: t, Funcs: make(map[string]Func), Vars: make(map[string]Value)}
}

// RegisterFunc installs a helper function.
func (e *Env) RegisterFunc(name string, f Func) { e.Funcs[name] = f }

// Clone returns a copy sharing Funcs but with a fresh Vars map seeded from
// the receiver. ViewCL scopes use this for where-clause bindings.
func (e *Env) Clone() *Env {
	ne := &Env{Target: e.Target, Funcs: e.Funcs, Vars: make(map[string]Value, len(e.Vars))}
	for k, v := range e.Vars {
		ne.Vars[k] = v
	}
	return ne
}

// Types is a shorthand for the target's type registry.
func (e *Env) Types() *ctypes.Registry { return e.Target.Types() }

// Load performs rvalue conversion: scalar lvalues are fetched from target
// memory; aggregates and rvalues pass through unchanged.
func (e *Env) Load(v Value) (Value, error) {
	if !v.HasAddr || v.IsStr {
		return v, nil
	}
	t := v.Type.Strip()
	switch t.Kind {
	case ctypes.KindInt, ctypes.KindBool, ctypes.KindEnum, ctypes.KindPointer:
		raw, err := target.ReadUint(e.Target, v.Addr, t.Size())
		if err != nil {
			return Value{}, err
		}
		return Value{Type: v.Type, Bits: raw}, nil
	case ctypes.KindFunc:
		// Function designators decay to function pointers, so symbol
		// references compare naturally against loaded fptr fields.
		return Value{Type: ctypes.FuncPtr, Bits: v.Addr}, nil
	default:
		// Aggregates (structs, unions, arrays) stay address-designated;
		// arrays deliberately do not decay so container converters keep
		// their element counts.
		return v, nil
	}
}

// LoadField reads member f of the aggregate lvalue v, handling bitfields.
func (e *Env) LoadField(v Value, f ctypes.Field) (Value, error) {
	if !v.HasAddr {
		return Value{}, fmt.Errorf("expr: member access on non-lvalue %s", v)
	}
	addr := v.Addr + f.Offset
	if f.IsBitfield() {
		raw, err := target.ReadUint(e.Target, addr, f.Type.Size())
		if err != nil {
			return Value{}, err
		}
		raw >>= f.BitOffset
		raw &= (1 << f.BitSize) - 1
		return Value{Type: f.Type, Bits: raw}, nil
	}
	return MakeLValue(f.Type, addr), nil
}
