package viewcl_test

import (
	"runtime"
	"strings"
	"testing"

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
