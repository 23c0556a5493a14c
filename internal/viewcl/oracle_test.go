package viewcl_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"visualinux/internal/expr"
	"visualinux/internal/kernelsim"
	"visualinux/internal/render"
	"visualinux/internal/target"
	"visualinux/internal/vclstdlib"
	"visualinux/internal/viewcl"
)

// The compiled ViewCL engine (closure chains, slot frames, pooled run state)
// must be observationally identical to the tree-walking interpreter it
// replaced — the interpreter is kept in walker_test.go, reached through
// RunWalker/RunSourceWalker, exactly so it can serve as the differential
// oracle here. "Identical" means byte-equal rendered plots and equal
// extraction-issue lists, across every stdlib figure and case study, cold
// and across a stop→mutate→resume memo cycle.

// interpOver is an interpreter over tg with the simulated kernel's helpers
// and flag:<id> decorator sets, as a session builds it.
func interpOver(tg target.Target) *viewcl.Interp {
	env := expr.NewEnv(tg)
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

// runEngine runs src through the compiled engine, or through the
// tree-walking oracle when interpret is set.
func runEngine(in *viewcl.Interp, interpret bool, name, src string) (*viewcl.Result, error) {
	if interpret {
		return in.RunSourceWalker(name, src)
	}
	return in.RunSource(name, src)
}

// oraclePrograms is the full corpus both engines must agree on.
func oraclePrograms() map[string]string {
	progs := map[string]string{
		"maple":      vclstdlib.MapleTreeProgram,
		"stackrot":   vclstdlib.StackRotProgram,
		"dirtypipe":  vclstdlib.DirtyPipeProgram,
		"quickstart": vclstdlib.QuickstartProgram,
	}
	for _, fig := range vclstdlib.Figures() {
		progs[fig.ID] = fig.Program
	}
	return progs
}

func errStrings(errs []error) []string {
	out := make([]string, len(errs))
	for i, e := range errs {
		out[i] = e.Error()
	}
	return out
}

func TestCompiledMatchesInterpretedOracle(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	for id, prog := range oraclePrograms() {
		id, prog := id, prog
		t.Run(id, func(t *testing.T) {
			comp := interpOver(k.Target())
			intp := interpOver(k.Target())

			cres, err := comp.RunSource(id, prog)
			if err != nil {
				t.Fatalf("compiled: %v", err)
			}
			ires, err := intp.RunSourceWalker(id, prog)
			if err != nil {
				t.Fatalf("interpreted: %v", err)
			}
			ct, it := render.Text(cres.Graph), render.Text(ires.Graph)
			if ct != it {
				t.Fatalf("engines diverge on %s:\n--- compiled ---\n%s\n--- interpreted ---\n%s", id, ct, it)
			}
			ce, ie := errStrings(cres.Errors), errStrings(ires.Errors)
			if len(ce) != len(ie) {
				t.Fatalf("issue counts diverge: compiled %v vs interpreted %v", ce, ie)
			}
			for i := range ce {
				if ce[i] != ie[i] {
					t.Errorf("issue %d diverges:\ncompiled:    %s\ninterpreted: %s", i, ce[i], ie[i])
				}
			}
		})
	}
}

// Error programs must fail identically too: same message, same evaluation
// order (definition lookup before argument evaluation, anchors after).
var oracleErrorPrograms = map[string]string{
	"unknown-type": `plot NoSuchBox(${init_task})`,
	"unbound-var":  `plot @nobody`,
	"circular": `define T: task_struct { Text pid }
x = @y
y = @x
plot T(${&init_task})` + "\n" + `plot @x`,
	"bad-anchor": `define T: task_struct { Text pid }
plot T<task_struct.no_such_field>(${&init_task})`,
	"scalar-plot": `plot ${init_task.pid}`,
}

func TestOracleErrorParity(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	for id, prog := range oracleErrorPrograms {
		id, prog := id, prog
		t.Run(id, func(t *testing.T) {
			comp := interpOver(k.Target())
			intp := interpOver(k.Target())
			_, cerr := comp.RunSource(id, prog)
			_, ierr := intp.RunSourceWalker(id, prog)
			if (cerr == nil) != (ierr == nil) {
				t.Fatalf("one engine failed, the other did not: compiled=%v interpreted=%v", cerr, ierr)
			}
			if cerr != nil && cerr.Error() != ierr.Error() {
				t.Errorf("error text diverges:\ncompiled:    %v\ninterpreted: %v", cerr, ierr)
			}
		})
	}
}

// cellBudgetProgram yields one raw-scalar container per list node: every
// element becomes a cell box, up to MaxElems² of them.
const cellBudgetProgram = `plot List(${&init_task.tasks}).forEach |n| { yield Array(${init_task.comm}) }`

// Cell boxes count against MaxObjects: with a budget of 10 the program
// above fails on both engines with the same error instead of plotting
// hundreds of cells.
func TestCellBoxObjectBudget(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	var errs [2]error
	for e, interpret := range []bool{false, true} {
		in := interpOver(k.Target())
		in.MaxObjects, in.MaxElems = 10, 64
		res, err := runEngine(in, interpret, "cells", cellBudgetProgram)
		if err == nil {
			t.Fatalf("interpret=%v: plotted %d boxes past a budget of 10 with no error", interpret, len(res.Graph.Boxes))
		}
		errs[e] = err
	}
	if !strings.Contains(errs[0].Error(), "object budget exceeded") || errs[0].Error() != errs[1].Error() {
		t.Fatalf("want the same object-budget error from both engines:\ncompiled:    %v\ninterpreted: %v", errs[0], errs[1])
	}
}

// memoOracle builds one interpreter with the full incremental wiring:
// snapshot-backed reads and a cross-run memo.
func memoOracle(t testing.TB, k *kernelsim.Kernel) (*target.Snapshot, *viewcl.Interp) {
	t.Helper()
	snap := target.NewSnapshot(k.Target())
	in := interpOver(snap)
	in.Memo = viewcl.NewMemo(snap)
	return snap, in
}

// The engines must also agree through a stop→mutate→resume cycle with the
// memo active: cold extraction, a kernel-side mutation (the StackRot maple
// tree rebuild), then a warm re-extraction that reuses clean boxes and
// rebuilds dirty ones.
func TestOracleMemoCycleMatches(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{DisableStackRot: true})
	victim := k.ByPID[100]
	k.Symbol("stackrot_mm", k.At("mm_struct", victim.Get("mm")))

	csnap, cin := memoOracle(t, k)
	isnap, iin := memoOracle(t, k)

	run := func(in *viewcl.Interp, phase string) *viewcl.Result {
		res, err := runEngine(in, in == iin, "stackrot", vclstdlib.StackRotProgram)
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		return res
	}
	c1, i1 := run(cin, "compiled cold"), run(iin, "interpreted cold")
	if a, b := render.Text(c1.Graph), render.Text(i1.Graph); a != b {
		t.Fatalf("cold plots diverge:\n--- compiled ---\n%s\n--- interpreted ---\n%s", a, b)
	}

	// Mutate: a new mapping rebuilds the maple tree and queues the replaced
	// nodes on the RCU list (the StackRot step moment).
	if _, err := k.MapRegion(100, 0x7100_0000_0000, 0x7100_0002_0000,
		kernelsim.VMRead|kernelsim.VMWrite, kernelsim.Obj{}); err != nil {
		t.Fatalf("map: %v", err)
	}
	csnap.Advance()
	isnap.Advance()

	c2, i2 := run(cin, "compiled warm"), run(iin, "interpreted warm")
	if a, b := render.Text(c2.Graph), render.Text(i2.Graph); a != b {
		t.Fatalf("post-mutation plots diverge:\n--- compiled ---\n%s\n--- interpreted ---\n%s", a, b)
	}
	// Both engines share the memo machinery; the cycle must actually have
	// exercised it the same way on both sides.
	if c2.BoxesReused == 0 {
		t.Error("compiled warm run reused nothing")
	}
	if c2.BoxesBuilt == 0 {
		t.Error("compiled warm run rebuilt nothing despite the mutation")
	}
	if c2.BoxesReused != i2.BoxesReused || c2.BoxesBuilt != i2.BoxesBuilt {
		t.Errorf("reuse split diverges: compiled %d/%d vs interpreted %d/%d",
			c2.BoxesReused, c2.BoxesBuilt, i2.BoxesReused, i2.BoxesBuilt)
	}
}

// The compiled engine's cold-extraction allocation footprint must sit well
// below the interpreter's on the same figure — the arena/pool work is what
// keeps the steady state quiet. Allocation counts are deterministic enough
// to assert exactly; TestCompiledColdFaster checks the time side.
func TestCompiledColdAllocs(t *testing.T) {
	fig, ok := vclstdlib.FigureByID("7-1")
	if !ok {
		t.Fatal("figure 7-1 missing")
	}
	k := kernelsim.Build(kernelsim.Options{})
	run := func(interpret bool) float64 {
		in := interpOver(k.Target())
		if _, err := runEngine(in, interpret, fig.ID, fig.Program); err != nil { // warm-up
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := runEngine(in, interpret, fig.ID, fig.Program); err != nil {
				t.Fatal(err)
			}
		})
	}
	compiled, interpreted := run(false), run(true)
	if compiled*2 >= interpreted {
		t.Errorf("compiled cold run allocates %.0f objects/op vs interpreted %.0f — want < half", compiled, interpreted)
	}
	t.Logf("cold allocs/op: compiled %.0f, interpreted %.0f", compiled, interpreted)
}

// The compiled engine exists to be cheaper on the CPU: its cold 20-figure
// sweep must run at least twice as fast as the interpreter's. Both engines
// are timed in this process, sweep for sweep in alternation, each sweep from
// a collected heap, and each engine keeps its fastest sweep, so host load and
// drift fall on both sides of the ratio.
func TestCompiledColdFaster(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	figs := vclstdlib.Figures()
	engines := []*viewcl.Interp{interpOver(k.Target()), interpOver(k.Target())}
	sweep := func(in *viewcl.Interp) time.Duration {
		runtime.GC()
		t0 := time.Now()
		for _, fig := range figs {
			if _, err := runEngine(in, in == engines[1], fig.ID, fig.Program); err != nil {
				t.Fatalf("%s: %v", fig.ID, err)
			}
		}
		return time.Since(t0)
	}
	best := []time.Duration{1<<63 - 1, 1<<63 - 1}
	for i := 0; i < 16; i++ {
		for e, in := range engines {
			d := sweep(in)
			if i > 0 && d < best[e] { // sweep 0 compiles and warms up
				best[e] = d
			}
		}
	}
	compiled, interpreted := best[0], best[1]
	speedup := float64(interpreted) / float64(compiled)
	if speedup < minColdSpeedup {
		t.Errorf("cold sweep: compiled %v vs interpreted %v (%.2fx), want >= %.1fx",
			compiled, interpreted, speedup, minColdSpeedup)
	}
	t.Logf("cold sweep: compiled %v, interpreted %v (%.2fx)", compiled, interpreted, speedup)
}

// minColdSpeedup is TestCompiledColdFaster's bound (race_test.go lowers it).
var minColdSpeedup = 2.0

// raceBuild is set by race_test.go when the race detector is on.
var raceBuild = false

// A corrupt CFS run-queue tree whose root links to itself must not recurse
// the RBTree walk into a fatal stack overflow: both engines stop at the depth
// bound and return the same plot, annotated with the corrupt node.
func TestRBTreeSelfLoopBounded(t *testing.T) {
	fig, ok := vclstdlib.FigureByID("7-1")
	if !ok {
		t.Fatal("figure 7-1 missing")
	}
	for _, tc := range []struct {
		name string
		off  uint64 // rb_node link overwritten: rb_right +8, rb_left +16
	}{
		{"rb_left", 16},
		{"rb_right", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := kernelsim.Build(kernelsim.Options{})
			root, err := k.Mem.ReadU64(k.Runqueues.Index(0).FieldAddr("cfs.tasks_timeline"))
			if err != nil || root == 0 {
				t.Fatalf("run-queue root %#x: %v", root, err)
			}
			k.Mem.WriteU64(root+tc.off, root)
			const note = "RBTree cycle or corrupt depth at 0x"

			var texts []string
			for _, interpret := range []bool{false, true} {
				in := interpOver(k.Target())
				res, err := runEngine(in, interpret, fig.ID, fig.Program)
				if err != nil {
					t.Fatalf("interpret=%v: %v", interpret, err)
				}
				found := false
				for _, e := range res.Errors {
					found = found || strings.Contains(e.Error(), note)
				}
				if !found {
					t.Errorf("interpret=%v: issues %v lack %q", interpret, errStrings(res.Errors), note)
				}
				texts = append(texts, render.Text(res.Graph))
			}
			if texts[0] != texts[1] {
				t.Errorf("engines diverge on the corrupt tree:\n--- compiled ---\n%s\n--- interpreted ---\n%s", texts[0], texts[1])
			}
		})
	}
}
