package viewcl_test

import (
	"maps"
	"runtime"
	"slices"
	"strings"
	"testing"

	"visualinux/internal/kernelsim"
	"visualinux/internal/render"
	"visualinux/internal/vclstdlib"
	"visualinux/internal/viewcl"
)

// deepBoxes nests n inline boxes, each the Box item of the one around it.
func deepBoxes(n int) string {
	return "plot " + strings.Repeat("Box [ Box b: ", n) + "NULL" + strings.Repeat(" ]", n) + "\n"
}

// deepEscape is a vplot program whose one ${...} escape nests n parens.
func deepEscape(n int) string {
	return escape(strings.Repeat("(", n) + "1" + strings.Repeat(")", n))
}

// escape is a vplot program whose one ${...} escape is body.
func escape(body string) string {
	return "root = ${" + body + "}\nplot @root\n"
}

// TestParseDepthCapped: hostile nesting, in ViewCL itself or inside a
// ${...} escape, is an error rather than a fatal stack overflow, and every
// stdlib figure still parses.
func TestParseDepthCapped(t *testing.T) {
	if _, err := viewcl.Parse("deep", deepBoxes(1<<12)); err == nil || !strings.Contains(err.Error(), "nested too deeply") {
		t.Fatalf("2^12 nested boxes: err = %v, want a nesting error", err)
	}
	if _, err := viewcl.Parse("shallow", deepBoxes(8)); err != nil {
		t.Fatalf("8 nested boxes: %v", err)
	}
	_, in := newInterp(t)
	if _, err := in.RunSource("deep", deepEscape(1<<12)); err == nil || !strings.Contains(err.Error(), "nested too deeply") {
		t.Fatalf("2^12 nested parens in ${...}: err = %v, want a nesting error", err)
	}
	for _, fig := range vclstdlib.Figures() {
		if _, err := viewcl.Parse(fig.ID, fig.Program); err != nil {
			t.Errorf("figure %s: %v", fig.ID, err)
		}
	}
}

// TestNestingFailsBeforeTokens: 2 MB of hostile input, in ViewCL itself or
// in a ${...} escape, fails in a lexer before a token per byte is built:
// nesting on the nesting cap, a flat "1+1+…", "----…x" or run of
// statements on a token cap.
func TestNestingFailsBeforeTokens(t *testing.T) {
	_, in := newInterp(t)
	run := func(src string) error { _, err := in.RunSource("hostile", src); return err }
	parse := func(src string) error { _, err := viewcl.Parse("hostile", src); return err }
	cases := []struct {
		name string
		src  string
		run  func(src string) error
		want string
	}{
		{"escape", deepEscape(1 << 20), run, "nested too deeply"},
		{"boxes", deepBoxes(2 << 20 / 15), parse, "nested too deeply"},
		{"flat sum escape", escape(strings.Repeat("1+", 1<<20) + "1"), run, "too long"},
		{"prefix run escape", escape(strings.Repeat("-", 2<<20) + "x"), run, "too long"},
		{"flat program", strings.Repeat("plot @x\n", 2<<20/8), parse, "too long"},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.run(c.src)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s (%d KB): err = %v, want %q", c.name, len(c.src)>>10, err, c.want)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		if alloc > 32<<20 {
			t.Errorf("%s (%d KB) allocated %d MB before failing, want under 32 MB", c.name, len(c.src)>>10, alloc>>20)
		}
		t.Logf("%s (%d KB): %d KB allocated", c.name, len(c.src)>>10, alloc>>10)
	}
}

// FuzzViewCLParse: Parse must never panic, whatever the source.
func FuzzViewCLParse(f *testing.F) {
	for _, fig := range vclstdlib.Figures() {
		f.Add(fig.Program)
	}
	f.Add(deepBoxes(1 << 10))
	f.Add(deepEscape(1 << 10))
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = viewcl.Parse("fuzz", src) // errors fine; panics are the failure mode
	})
}

// FuzzEngines is the differential fuzzer of the two ViewCL engines: for any
// source, the compiled engine must do what the tree-walking oracle does.
// Either both fail with the same error text, or both succeed with the same
// rendered plot and the same extraction issues. The walker is the
// reference; a divergence is a compiled-engine bug unless the walker is
// plainly wrong. Inputs that once diverged stay as seeds under
// testdata/fuzz/FuzzEngines. The corpus starts from the oracle tests'
// programs: the 24 figures and case studies, the error-parity set, and the
// cell-budget program.
func FuzzEngines(f *testing.F) {
	for _, progs := range []map[string]string{oraclePrograms(), oracleErrorPrograms} {
		for _, id := range slices.Sorted(maps.Keys(progs)) {
			f.Add(progs[id])
		}
	}
	f.Add(cellBudgetProgram)
	k := kernelsim.Build(kernelsim.Options{})
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := viewcl.Parse("fuzz", src); err != nil {
			return // both engines share the parser: nothing to compare
		}
		var res [2]*viewcl.Result
		var errs [2]error
		for e, interpret := range []bool{false, true} {
			in := interpOver(k.Target())
			// A small budget keeps hostile inputs (containers of containers)
			// cheap; both engines get the same one.
			in.MaxObjects = fuzzMaxObjects
			in.MaxElems = fuzzMaxElems
			res[e], errs[e] = runEngine(in, interpret, "fuzz", src)
		}
		if (errs[0] == nil) != (errs[1] == nil) {
			t.Fatalf("one engine failed, the other did not:\ncompiled:    %v\ninterpreted: %v", errs[0], errs[1])
		}
		if errs[0] != nil {
			if errs[0].Error() != errs[1].Error() {
				t.Fatalf("error text diverges:\ncompiled:    %v\ninterpreted: %v", errs[0], errs[1])
			}
			return
		}
		if ct, it := render.Text(res[0].Graph), render.Text(res[1].Graph); ct != it {
			t.Fatalf("plots diverge:\n--- compiled ---\n%s\n--- interpreted ---\n%s", ct, it)
		}
		if ce, ie := errStrings(res[0].Errors), errStrings(res[1].Errors); !slices.Equal(ce, ie) {
			t.Fatalf("issues diverge:\ncompiled:    %q\ninterpreted: %q", ce, ie)
		}
	})
}

// The fuzzer's budgets: boxes per plot and elements per container.
const (
	fuzzMaxObjects = 2000
	fuzzMaxElems   = 64
)
