package coredump_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/coredump"
	"visualinux/internal/ctypes"
	"visualinux/internal/kernelsim"
	"visualinux/internal/target"
	"visualinux/internal/vclstdlib"
)

func dumpAndLoad(t *testing.T, k *kernelsim.Kernel) *target.Sim {
	t.Helper()
	var buf bytes.Buffer
	if err := coredump.Dump(k.Target(), &buf); err != nil {
		t.Fatalf("dump: %v", err)
	}
	// Reconstruct types locally, like loading vmlinux against a vmcore.
	reg := kernelsim.RegisterTypes(ctypes.NewRegistry())
	tgt, err := coredump.Load(bytes.NewReader(buf.Bytes()), reg)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return tgt
}

func TestRoundtripMemoryAndSymbols(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	tgt := dumpAndLoad(t, k)

	// Memory identical at a few probe points.
	for _, probe := range []uint64{k.InitTask.Addr, k.SharedPage.Addr, k.StackRotNode.Addr} {
		want, err := target.ReadU64(k.Target(), probe)
		if err != nil {
			t.Fatal(err)
		}
		got, err := target.ReadU64(tgt, probe)
		if err != nil {
			t.Fatalf("probe %#x: %v", probe, err)
		}
		if got != want {
			t.Errorf("probe %#x: %#x != %#x", probe, got, want)
		}
	}
	// Symbols rebound with types.
	sym, ok := tgt.LookupSymbol("init_task")
	if !ok {
		t.Fatal("init_task lost")
	}
	if sym.Type == nil || sym.Type.Strip().Name != "task_struct" {
		t.Errorf("init_task type = %v", sym.Type)
	}
	// Array-typed symbols ("struct rq[2]") reparse.
	rqs, ok := tgt.LookupSymbol("runqueues")
	if !ok || rqs.Type == nil || rqs.Type.Strip().Kind != ctypes.KindArray {
		t.Errorf("runqueues type = %v", rqs.Type)
	}
	// Function symbols keep reverse lookup.
	fn, ok := tgt.LookupSymbol("mt_free_rcu")
	if !ok {
		t.Fatal("function symbol lost")
	}
	if name, ok := tgt.SymbolAt(fn.Addr); !ok || name != "mt_free_rcu" {
		t.Errorf("reverse lookup = %q", name)
	}
}

// TestPostMortemDebugging: a full figure extraction against the dump must
// match the live extraction — the crash(8) workflow.
func TestPostMortemDebugging(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	tgt := dumpAndLoad(t, k)

	fig, _ := vclstdlib.FigureByID("9-2")
	live := core.NewSession(k.Target(), nil)
	pl, err := live.VPlot("live", fig.Program)
	if err != nil {
		t.Fatal(err)
	}
	post := core.NewSession(tgt, nil)
	pp, err := post.VPlot("postmortem", fig.Program)
	if err != nil {
		t.Fatalf("post-mortem extraction: %v", err)
	}
	if len(pl.Graph.Boxes) != len(pp.Graph.Boxes) {
		t.Fatalf("box counts: live %d, post-mortem %d", len(pl.Graph.Boxes), len(pp.Graph.Boxes))
	}
	for _, id := range pl.Graph.Order {
		lb := pl.Graph.Boxes[id]
		pb, ok := pp.Graph.Get(id)
		if !ok {
			t.Fatalf("box %s missing post-mortem", id)
		}
		for _, vn := range lb.ViewSeq {
			li, pi := lb.Views[vn].Items, pb.Views[vn].Items
			for i := range li {
				if li[i].Value != pi[i].Value {
					t.Errorf("%s.%s: %q != %q", id, li[i].Name, pi[i].Value, li[i].Value)
				}
			}
		}
	}
}

// dump-builder helpers for corrupt-input fixtures: hand-assemble wire
// structures so each case controls exactly one field.
func le16(v uint16) []byte { return []byte{byte(v), byte(v >> 8)} }
func le32(v uint32) []byte { return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)} }
func le64(v uint64) []byte {
	return append(le32(uint32(v)), le32(uint32(v>>32))...)
}

// miniDump builds "VLCORE01" + one page-sized segment at 0x1000 + the given
// symbol-table tail (nil means a valid empty table).
func miniDump(tail []byte) []byte {
	d := []byte("VLCORE01")
	d = append(d, le32(1)...)      // 1 segment
	d = append(d, le64(0x1000)...) // addr
	d = append(d, le64(0x1000)...) // length: one page
	d = append(d, make([]byte, 0x1000)...)
	if tail == nil {
		tail = le32(0) // 0 symbols
	}
	return append(d, tail...)
}

// TestCorruptDumps: every wire-controlled count and length abused in turn.
// Each fixture must be rejected with a typed error (errors.Is ErrCorrupt),
// without panicking and without attempting the implied giant allocation.
func TestCorruptDumps(t *testing.T) {
	reg := kernelsim.RegisterTypes(ctypes.NewRegistry())
	seg := func(addr, length uint64) []byte {
		d := []byte("VLCORE01")
		d = append(d, le32(1)...)
		d = append(d, le64(addr)...)
		d = append(d, le64(length)...)
		return d
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("NOTACORE falafel")},
		{"truncated segment count", append([]byte("VLCORE01"), 0xFF, 0xFF)},
		{"huge segment count", append([]byte("VLCORE01"), le32(0xFFFFFFFF)...)},
		{"truncated segment header", append(append([]byte("VLCORE01"), le32(1)...), le64(0x1000)...)},
		{"huge segment length", append(seg(0x1000, 1<<40), make([]byte, 0x1000)...)},
		{"zero segment length", seg(0x1000, 0)},
		{"unaligned segment length", seg(0x1000, 0x1001)},
		{"unaligned segment addr", seg(0x1001, 0x1000)},
		{"segment wraps address space", seg(^uint64(0)&^uint64(0xFFF), 0x2000)},
		{"truncated segment data", append(seg(0x1000, 0x1000), make([]byte, 100)...)},
		{"truncated symbol count", miniDump(le16(0))},
		{"huge symbol count", miniDump(le32(0xFFFFFFFF))},
		{"symbol name overruns reader", miniDump(append(le32(1), append(le16(0xFFFF), 'a', 'b')...))},
		{"empty symbol name", miniDump(append(le32(1), append(le16(0), append(le64(0x1000), le16(0)...)...)...))},
		{"truncated symbol addr", miniDump(append(le32(1), append(le16(1), 'x', 0, 0)...))},
		{"truncated symbol type name", miniDump(append(le32(1), append(le16(1), append([]byte{'x'}, le64(0x1000)...)...)...))},
		{"trailing garbage", miniDump(append(le32(0), "extra"...))},
	}
	for _, tc := range cases {
		_, err := coredump.Load(bytes.NewReader(tc.data), reg)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !errors.Is(err, coredump.ErrCorrupt) {
			t.Errorf("%s: error %v not typed ErrCorrupt", tc.name, err)
		}
	}
}

// TestCorruptDumpsOnRealImage mutates a genuine dump in place — the header
// fields of a real image must be just as guarded as hand-built ones.
func TestCorruptDumpsOnRealImage(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	var buf bytes.Buffer
	if err := coredump.Dump(k.Target(), &buf); err != nil {
		t.Fatal(err)
	}
	reg := kernelsim.RegisterTypes(ctypes.NewRegistry())
	mutate := func(name string, f func(d []byte) []byte) {
		d := f(append([]byte(nil), buf.Bytes()...))
		if _, err := coredump.Load(bytes.NewReader(d), reg); err == nil {
			t.Errorf("%s: accepted", name)
		} else if !errors.Is(err, coredump.ErrCorrupt) {
			t.Errorf("%s: error %v not typed ErrCorrupt", name, err)
		}
	}
	mutate("segment count inflated", func(d []byte) []byte {
		copy(d[8:12], le32(0xFFFFFFFF))
		return d
	})
	mutate("first segment length inflated", func(d []byte) []byte {
		copy(d[20:28], le64(1<<40))
		return d
	})
	mutate("truncated mid-image", func(d []byte) []byte { return d[:len(d)/2] })
	mutate("trailing garbage", func(d []byte) []byte { return append(d, 0xAA) })
}

// TestDumpNoCowBreaks: dumping a template-forked session is a read, not a
// write — it must not privatize a single shared page or bump the store's
// CoW-break counter.
func TestDumpNoCowBreaks(t *testing.T) {
	k := kernelsim.FromTemplate(kernelsim.Options{})
	before := kernelsim.SharedStore().Stats()
	resBefore := k.Mem.Residency()
	var buf bytes.Buffer
	if err := coredump.Dump(k.Target(), &buf); err != nil {
		t.Fatal(err)
	}
	after := kernelsim.SharedStore().Stats()
	resAfter := k.Mem.Residency()
	if after.CowBreaks != before.CowBreaks {
		t.Errorf("dump broke CoW: store breaks %d -> %d", before.CowBreaks, after.CowBreaks)
	}
	if resAfter.PrivateBytes != resBefore.PrivateBytes || resAfter.SharedPages != resBefore.SharedPages {
		t.Errorf("dump changed residency: %+v -> %+v", resBefore, resAfter)
	}
	if buf.Len() < 100*1024 {
		t.Errorf("forked dump suspiciously small: %d bytes", buf.Len())
	}
}

// TestDumpReleasedImage: a released fork is "zombie-readable" — its shared
// pages stay mapped read-only — so a post-mortem dump of an evicted session
// must still succeed and match the pre-release dump byte for byte.
func TestDumpReleasedImage(t *testing.T) {
	k := kernelsim.FromTemplate(kernelsim.Options{})
	var live bytes.Buffer
	if err := coredump.Dump(k.Target(), &live); err != nil {
		t.Fatal(err)
	}
	k.Mem.Release()
	var zombie bytes.Buffer
	if err := coredump.Dump(k.Target(), &zombie); err != nil {
		t.Fatalf("dump after release: %v", err)
	}
	if !bytes.Equal(live.Bytes(), zombie.Bytes()) {
		t.Error("released-image dump differs from live dump")
	}
}

// TestCoredumpVsLiveEquivalence is in internal/core's fleet tests (it needs
// the session manager); here we pin the narrower contract that a loaded
// dump reads back the exact bytes the fork held.
func TestForkRoundtrip(t *testing.T) {
	k := kernelsim.FromTemplate(kernelsim.Options{})
	tgt := dumpAndLoad(t, k)
	for _, probe := range []uint64{k.InitTask.Addr, k.SharedPage.Addr} {
		want, err := target.ReadU64(k.Target(), probe)
		if err != nil {
			t.Fatal(err)
		}
		got, err := target.ReadU64(tgt, probe)
		if err != nil {
			t.Fatalf("probe %#x: %v", probe, err)
		}
		if got != want {
			t.Errorf("probe %#x: %#x != %#x", probe, got, want)
		}
	}
}

func TestDumpDeterministic(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	var a, b bytes.Buffer
	if err := coredump.Dump(k.Target(), &a); err != nil {
		t.Fatal(err)
	}
	if err := coredump.Dump(k.Target(), &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("dump not deterministic")
	}
	if a.Len() < 100*1024 {
		t.Errorf("dump suspiciously small: %d bytes", a.Len())
	}
	// Header sanity.
	if !strings.HasPrefix(a.String(), "VLCORE01") {
		t.Error("bad header")
	}
}
