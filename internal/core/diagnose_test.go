package core_test

import (
	"fmt"
	"strings"
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/vchat"
	"visualinux/internal/vclstdlib"
)

// TestDiagnosisEndToEnd drives the full span-driven diagnosis path: a
// stop→mutate→resume cycle over the incremental extractor, then a natural
// language "why is pane N slow?" answered purely from the retained span
// trees — this test never touches /debug/trace (or any HTTP surface at
// all), which is the point: the answer comes from the in-memory store.
func TestDiagnosisEndToEnd(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	o := obs.NewObserver()
	figs := []vclstdlib.Figure{mustFigure(t, "3-6")}
	x := core.NewIncrementalExtractor(k, k.KGDBTarget(), figs, o)

	out, err := x.Round() // cold round
	if err != nil {
		t.Fatalf("cold round: %v", err)
	}
	paneID := out[0].Pane.ID
	o.History.Snapshot(o.Registry)

	// stop → mutate (renaming init changes a row fig 3-6 shows) → resume
	k.ByPID[1].SetStr("comm", "renamed")
	x.Advance()
	out2, err := x.Round()
	if err != nil {
		t.Fatalf("mutation round: %v", err)
	}
	if out2[0].Reused {
		t.Fatal("mutation round reused the figure whole; nothing to diagnose")
	}
	o.History.Snapshot(o.Registry)

	s := x.Session

	// The structured diagnosis: stage buckets must conserve the round's
	// measured span-tree total (>= 90%) and name a real dominant stage.
	rec, ok := o.Traces.Last(paneID)
	if !ok {
		t.Fatalf("no retained trace for pane %d", paneID)
	}
	d, err := s.Diagnose(paneID)
	if err != nil {
		t.Fatalf("Diagnose: %v", err)
	}
	if d.Pane != paneID || d.Figure != "fig3-6" {
		t.Fatalf("diagnosis identity = pane %d figure %q", d.Pane, d.Figure)
	}
	total := rec.Trace.DurUS
	if total <= 0 {
		t.Fatalf("retained trace total = %dus", total)
	}
	if sum := d.Breakdown.SumUS(); sum*10 < total*9 {
		t.Fatalf("stage buckets sum to %dus of a %dus round (< 90%%)", sum, total)
	}
	if d.Suspect == "" || d.Suspect == obs.StageOther {
		t.Fatalf("suspect stage = %q, want a named pipeline stage", d.Suspect)
	}
	if d.SuspectShare <= 0 || d.SuspectShare > 1 {
		t.Fatalf("suspect share = %v", d.SuspectShare)
	}
	if d.Rounds < 2 {
		t.Fatalf("retained rounds = %d, want the cold round and the mutation round", d.Rounds)
	}

	// The vchat phrasing of the same question must route to the diagnosis
	// path and render the same suspect.
	kind, text, err := s.VChatAnswer(0, fmt.Sprintf("why is pane %d slow?", paneID))
	if err != nil {
		t.Fatalf("VChatAnswer: %v", err)
	}
	if kind != core.AnswerDiagnosis {
		t.Fatalf("kind = %q, want diagnosis", kind)
	}
	if !strings.Contains(text, fmt.Sprintf("pane %d (fig3-6)", paneID)) {
		t.Fatalf("rendered diagnosis does not identify the pane:\n%s", text)
	}
	if !strings.Contains(text, "dominant stage: "+d.Suspect) {
		t.Fatalf("rendered diagnosis does not name suspect %q:\n%s", d.Suspect, text)
	}

	// With no bench baseline installed, the fallback baseline is the median
	// of the pane's earlier retained rounds.
	if d.BaselineSource != "" && d.BaselineSource != "history" {
		t.Fatalf("baseline source = %q without an installed bench table", d.BaselineSource)
	}

	// A bench baseline takes precedence once installed.
	s.SetBaseline(map[string]float64{"3-6": 5.5})
	d2, err := s.Diagnose(paneID)
	if err != nil {
		t.Fatalf("Diagnose with baseline: %v", err)
	}
	if d2.BaselineSource != "bench" || d2.BaselineMS != 5.5 {
		t.Fatalf("baseline = %v (%s), want 5.5 (bench)", d2.BaselineMS, d2.BaselineSource)
	}
	if d2.BaselineRatio <= 0 {
		t.Fatalf("baseline ratio = %v", d2.BaselineRatio)
	}
}

// The other two diagnostic intents ride the same retained data: slowest-pane
// scanning and round-over-round comparison.
func TestDiagnosisSlowestAndChanges(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	o := obs.NewObserver()
	figs := []vclstdlib.Figure{mustFigure(t, "3-6"), mustFigure(t, "7-1")}
	x := core.NewIncrementalExtractor(k, k.KGDBTarget(), figs, o)
	if _, err := x.Round(); err != nil {
		t.Fatalf("cold round: %v", err)
	}
	k.ByPID[1].SetStr("comm", "renamed") // a row of fig 3-6, nothing of 7-1
	x.Advance()
	if _, err := x.Round(); err != nil {
		t.Fatalf("round: %v", err)
	}
	s := x.Session

	kind, text, err := s.VChatAnswer(0, "which pane is slowest?")
	if err != nil {
		t.Fatalf("slowest: %v", err)
	}
	if kind != core.AnswerDiagnosis || !strings.Contains(text, "dominant stage:") {
		t.Fatalf("slowest answer (%s):\n%s", kind, text)
	}

	// "what changed" needs two retained rounds for the pane; fig 3-6 was
	// re-extracted both rounds (cold + rename), so its pane qualifies.
	d, err := s.DiagnoseSlowest()
	if err != nil {
		t.Fatal(err)
	}
	pane := d.Pane
	if n := len(o.Traces.History(pane)); n >= 2 {
		kind, text, err = s.VChatAnswer(0, fmt.Sprintf("what changed in pane %d since the last stop?", pane))
		if err != nil {
			t.Fatalf("changes: %v", err)
		}
		if kind != core.AnswerDiagnosis || !strings.Contains(text, "largest swing:") {
			t.Fatalf("changes answer (%s):\n%s", kind, text)
		}
	}

	// Visualization requests must still come back as ViewQL.
	kind, prog, err := s.VChatAnswer(1, "hide the tasks except for pids 1 and 100")
	if err != nil {
		t.Fatalf("synthesis path: %v", err)
	}
	if kind != core.AnswerViewQL || !strings.Contains(prog, "SELECT") {
		t.Fatalf("synthesis answer (%s):\n%s", kind, prog)
	}

	// The intent classifier itself must agree on the routing.
	if intent, pane := vchat.Classify("why is pane 2 slow?"); intent != vchat.IntentDiagnosePane || pane != 2 {
		t.Fatalf("Classify = (%v, %d)", intent, pane)
	}
}
