package viewcl_test

import (
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
	return "root = ${" + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "}\nplot @root\n"
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
