package viewcl_test

import (
	"slices"
	"testing"

	"visualinux/internal/expr"
	"visualinux/internal/kernelsim"
	"visualinux/internal/render"
	"visualinux/internal/target"
	"visualinux/internal/vclstdlib"
	"visualinux/internal/viewcl"
)

// memoInterp builds an interpreter whose reads go through a
// generation-tagged snapshot and whose box extraction goes through a
// cross-run memo, the way the incremental extractor wires it.
func memoInterp(t *testing.T) (*kernelsim.Kernel, *target.Snapshot, *viewcl.Interp) {
	t.Helper()
	k := kernelsim.Build(kernelsim.Options{})
	snap := target.NewSnapshot(k.Target())
	env := expr.NewEnv(snap)
	kernelsim.RegisterHelpers(env)
	in := viewcl.New(env)
	for id, set := range kernelsim.FlagSets() {
		var fl []viewcl.Flag
		for _, b := range set {
			fl = append(fl, viewcl.Flag{Mask: b.Mask, Name: b.Name})
		}
		in.Flags[id] = fl
	}
	in.Memo = viewcl.NewMemo(snap)
	return k, snap, in
}

// A warm second run must reuse every named box and produce byte-identical
// output — box IDs included, which exercises the vbox-numbering taint
// discipline.
func TestMemoReuseByteIdentical(t *testing.T) {
	_, _, in := memoInterp(t)
	res1, err := in.RunSource("sched", schedProgram)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	res2, err := in.RunSource("sched", schedProgram)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if res2.BoxesReused == 0 {
		t.Fatal("warm run reused nothing")
	}
	if res2.BoxesBuilt != 0 {
		t.Fatalf("warm run rebuilt %d boxes with no mutation", res2.BoxesBuilt)
	}
	if a, b := render.Text(res1.Graph), render.Text(res2.Graph); a != b {
		t.Fatalf("memoized rerun not byte-identical:\n--- cold ---\n%s\n--- warm ---\n%s", a, b)
	}
	st := in.Memo.Stats()
	if st.Reuses == 0 {
		t.Fatal("memo counted no reuses")
	}
}

// Mutating bytes under a memoized box must reject exactly the stale entry:
// after the stop boundary the changed box rebuilds with fresh content while
// untouched boxes keep being served from the memo.
func TestMemoRejectsMutatedBox(t *testing.T) {
	k, snap, in := memoInterp(t)
	res1, err := in.RunSource("sched", schedProgram)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}

	// Flip the vruntime of a task that is actually in the extracted graph
	// (CPU 0's queue — k.Tasks spans all CPUs). Growing the max keeps the
	// RBTree rank order stable, so only content changes, not structure.
	f, err := k.Reg.MustLookup("task_struct").ResolvePath("se.vruntime")
	if err != nil {
		t.Fatalf("resolve se.vruntime: %v", err)
	}
	var maxAddr, maxVR uint64
	for _, b := range res1.Graph.ByType("task_struct") {
		if v, ok := b.Member("se.vruntime"); ok && (maxAddr == 0 || v.Raw > maxVR) {
			maxAddr, maxVR = b.Addr, v.Raw
		}
	}
	if maxAddr == 0 {
		t.Fatal("no task boxes in the cold graph")
	}
	k.Mem.WriteU64(maxAddr+f.Offset, maxVR+1_000_000)
	vr := maxVR

	snap.Advance()
	res, err := in.RunSource("sched", schedProgram)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if res.BoxesBuilt == 0 {
		t.Fatal("mutated box was served stale from the memo")
	}
	if res.BoxesReused == 0 {
		t.Fatal("untouched sibling boxes were not reused")
	}
	if in.Memo.Stats().Rejects == 0 {
		t.Fatal("no memo entry was rejected")
	}
	found := false
	for _, b := range res.Graph.ByType("task_struct") {
		if v, ok := b.Member("se.vruntime"); ok && v.Raw == vr+1_000_000 {
			found = true
		}
	}
	if !found {
		t.Fatal("rebuilt box does not show the mutated vruntime")
	}
}

// Every stdlib figure must be byte-stable under memoized re-extraction —
// the broad taint-correctness sweep (inline boxes, cells, clashes, plot
// roots all consume vbox numbers).
func TestMemoByteStableAcrossStdlib(t *testing.T) {
	_, snap, in := memoInterp(t)
	for _, fig := range vclstdlib.Figures() {
		cold, err := in.RunSource(fig.ID, fig.Program)
		if err != nil {
			t.Fatalf("figure %s cold: %v", fig.ID, err)
		}
		snap.Advance() // stop boundary with no writes: everything revalidates
		warm, err := in.RunSource(fig.ID, fig.Program)
		if err != nil {
			t.Fatalf("figure %s warm: %v", fig.ID, err)
		}
		if a, b := render.Text(cold.Graph), render.Text(warm.Graph); a != b {
			t.Errorf("figure %s drifted under memoized re-extraction", fig.ID)
		}
	}
}

// The memo serves clones: callers mutating a reused graph must never
// corrupt the cached pristine copy.
func TestMemoServesClones(t *testing.T) {
	_, _, in := memoInterp(t)
	res1, err := in.RunSource("sched", schedProgram)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	for _, b := range res1.Graph.Boxes {
		b.Label = "CORRUPTED"
		for _, v := range b.Views {
			for i := range v.Items {
				v.Items[i].Value = "CORRUPTED"
			}
		}
	}
	res2, err := in.RunSource("sched", schedProgram)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	for _, b := range res2.Graph.Boxes {
		if b.Label == "CORRUPTED" {
			t.Fatal("cache returned the caller-mutated box")
		}
	}
}

// Array.selectFrom reads the materialized subgraph, not target bytes, so
// the box whose view uses it must never be served from the memo: after two
// maple-tree slots swap, the mm_struct's own bytes are unchanged, but the
// address-space list it distills from the tree is not.
func TestMemoSelectFromNotReused(t *testing.T) {
	k, snap, in := memoInterp(t)
	fig, _ := vclstdlib.FigureByID("9-2")
	res, err := in.RunSource("fig9-2", fig.Program)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	slot, err := k.Reg.MustLookup("maple_node").ResolvePath("mr64.slot")
	if err != nil {
		t.Fatal(err)
	}
	// Swap the first two adjacent VMA slots of a leaf.
	var a, va, vb uint64
	for _, b := range res.Graph.Boxes {
		if b.Label != "MapleLeaf" {
			continue
		}
		for i := uint64(0); i+1 < slot.Type.Strip().Count && a == 0; i++ {
			p := b.Addr + slot.Offset + 8*i
			x, _ := k.Mem.ReadU64(p)
			y, _ := k.Mem.ReadU64(p + 8)
			if x != 0 && y != 0 {
				a, va, vb = p, x, y
			}
		}
	}
	if a == 0 {
		t.Fatal("no leaf holds two adjacent VMAs")
	}
	k.Mem.WriteU64(a, vb)
	k.Mem.WriteU64(a+8, va)
	snap.Advance()

	addrSpace := func(res *viewcl.Result) []string {
		t.Helper()
		for _, b := range res.Graph.Boxes {
			if b.Label == "MMStruct" {
				return b.Views["show_addrspace"].Items[len(b.Views["show_addrspace"].Items)-1].Elems
			}
		}
		t.Fatal("no mm_struct in the figure")
		return nil
	}
	warm, err := in.RunSource("fig9-2", fig.Program)
	if err != nil {
		t.Fatalf("warm run: %v", err)
	}
	cold, err := interpOver(k.Target()).RunSource("fig9-2", fig.Program)
	if err != nil {
		t.Fatalf("cold run after the swap: %v", err)
	}
	if got, want := addrSpace(warm), addrSpace(cold); !slices.Equal(got, want) {
		t.Fatalf("memoized address space %v, cold %v", got, want)
	}
	if warm.BoxesReused == 0 {
		t.Fatal("warm run reused nothing")
	}
}
