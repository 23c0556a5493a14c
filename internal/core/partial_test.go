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

// TestExtractFiguresPartial checks the all-figures helpers keep the panes
// that extracted when one figure fails: a 1-bad / N-good workspace yields N
// panes plus a joined error naming the bad one, not nil.
func TestExtractFiguresPartial(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	good := vclstdlib.Figures()
	figs := append(append([]vclstdlib.Figure{}, good...), badFigure)

	panesOut, err := core.ExtractFigures(k, figs, 4)
	if err == nil {
		t.Fatal("broken figure produced no error")
	}
	if !strings.Contains(err.Error(), "broken") {
		t.Errorf("error %v does not name the broken figure", err)
	}
	if len(panesOut) != len(figs) {
		t.Fatalf("panes = %d, want %d slots", len(panesOut), len(figs))
	}
	for i, p := range panesOut[:len(good)] {
		if p == nil {
			t.Fatalf("good figure %s lost to the broken one", figs[i].ID)
		}
	}
	if panesOut[len(good)] != nil {
		t.Fatal("broken figure produced a pane")
	}
}
