package core_test

import (
	"strings"
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/vclstdlib"
)

// badFigure cannot parse: it stands in for a figure whose program broke
// (stdlib regression, user typo) inside an otherwise healthy workspace.
var badFigure = vclstdlib.Figure{
	ID:      "broken",
	Title:   "deliberately broken",
	Program: "plot { this is not ViewCL",
}

// TestRoundKeepsGoodFigures checks the all-figures round keeps the panes
// that extracted when one figure fails: a 1-bad / N-good workspace yields N
// panes plus a joined error naming the bad one, not nil.
func TestRoundKeepsGoodFigures(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	good := vclstdlib.Figures()
	figs := append(append([]vclstdlib.Figure{}, good...), badFigure)

	x := core.NewIncrementalExtractor(k, k.Target(), figs, nil)
	out, err := x.Round()
	if err == nil {
		t.Fatal("broken figure produced no error")
	}
	if !strings.Contains(err.Error(), "broken") {
		t.Errorf("error %v does not name the broken figure", err)
	}
	if len(out) != len(figs) {
		t.Fatalf("results = %d, want %d slots", len(out), len(figs))
	}
	for i, r := range out[:len(good)] {
		if r.Pane == nil {
			t.Fatalf("good figure %s lost to the broken one", figs[i].ID)
		}
	}
	if out[len(good)].Pane != nil {
		t.Fatal("broken figure produced a pane")
	}
	if n := len(x.Session.Tree.Panes()); n != len(good) {
		t.Fatalf("session holds %d panes, want %d", n, len(good))
	}
}
