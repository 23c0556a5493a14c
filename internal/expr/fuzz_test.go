package expr_test

import (
	"regexp"
	"runtime"
	"strings"
	"testing"

	"visualinux/internal/ctypes"
	"visualinux/internal/expr"
	"visualinux/internal/kernelsim"
	"visualinux/internal/vclstdlib"
)

// deepParens nests a literal in n parentheses: 2n+1 bytes.
func deepParens(n int) string {
	return strings.Repeat("(", n) + "1" + strings.Repeat(")", n)
}

var escapeRe = regexp.MustCompile(`\$\{([^}]*)\}`)

// stdlibExprs returns the body of every ${...} escape in the stdlib
// figures: the C expressions the parser must keep accepting.
func stdlibExprs(t testing.TB) []string {
	var out []string
	for _, fig := range vclstdlib.Figures() {
		for _, m := range escapeRe.FindAllStringSubmatch(fig.Program, -1) {
			out = append(out, m[1])
		}
	}
	if len(out) == 0 {
		t.Fatal("no ${...} escapes found in the stdlib figures")
	}
	return out
}

// TestParseDepthCapped: 2^20 nested parentheses (2 MB, under the server's
// request-body limit) come back as an error instead of overflowing the
// goroutine stack, and every stdlib expression still parses.
func TestParseDepthCapped(t *testing.T) {
	reg := kernelsim.RegisterTypes(ctypes.NewRegistry())
	if _, err := expr.Parse(deepParens(1<<20), reg); err == nil || !strings.Contains(err.Error(), "nested too deeply") {
		t.Fatalf("2^20 nested parens: err = %v, want a nesting error", err)
	}
	for _, src := range stdlibExprs(t) {
		if _, err := expr.Parse(src, reg); err != nil {
			t.Errorf("stdlib expression %q: %v", src, err)
		}
	}
}

// flatSum is a left-deep "1+1+…+1" chain of n terms: 2n-1 bytes.
func flatSum(n int) string {
	return strings.Repeat("1+", n-1) + "1"
}

// prefixRun is n prefix minuses before an identifier: n+1 bytes.
func prefixRun(n int) string {
	return strings.Repeat("-", n) + "x"
}

// TestNestingFailsBeforeTokens: 2 MB of hostile input fails in the lexer,
// before a token per byte is built — a "((((…" on the nesting cap (about
// 400 MB of allocation when the parser's depth cap was the first check),
// a flat "1+1+…" or "----…x" on the token cap.
func TestNestingFailsBeforeTokens(t *testing.T) {
	reg := kernelsim.RegisterTypes(ctypes.NewRegistry())
	for _, c := range []struct{ name, src, want string }{
		{"nested parens", deepParens(1 << 20), "nested too deeply"},
		{"flat sum", flatSum(1 << 20), "too long"},
		{"prefix run", prefixRun(2 << 20), "too long"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := expr.Parse(c.src, reg)
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

// FuzzExprParse: Parse must never panic, whatever the source.
func FuzzExprParse(f *testing.F) {
	for _, src := range stdlibExprs(f) {
		f.Add(src)
	}
	f.Add(deepParens(1 << 10))
	f.Add("-!~*&" + deepParens(64))
	f.Add(flatSum(1 << 12))
	reg := kernelsim.RegisterTypes(ctypes.NewRegistry())
	f.Fuzz(func(t *testing.T, src string) {
		_, _ = expr.Parse(src, reg) // errors fine; panics are the failure mode
	})
}
