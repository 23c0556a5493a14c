package perf_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"text/tabwriter"
	"time"

	"visualinux/internal/core"
	"visualinux/internal/gdbrsp"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/perf"
	"visualinux/internal/target"
	"visualinux/internal/vclstdlib"
)

// ledgerFile holds every host-independent count the repository pins: one
// section per ledger, each a pure function of its inputs. `make ledger`
// rewrites it.
const ledgerFile = "../../LEDGER.json"

var update = flag.Bool("update", false, "rewrite the sections of "+ledgerFile+" that this run builds")

// ledgerSections builds each section of the ledger from the code that
// measures it.
var ledgerSections = []struct {
	name  string
	build func(t *testing.T) any
}{
	{"table4", table4Ledger},
	{"steady", func(t *testing.T) any { return steadyLedger(t, false) }},
	{"steady_hash_only", func(t *testing.T) any { return steadyLedger(t, true) }},
	{"rsp512", rsp512Ledger},
	{"wire512", wire512Ledger},
	{"kgdb_attach", kgdbAttachLedger},
	{"step_look", stepLookLedger},
}

// TestLedger builds every section and compares it with LEDGER.json; with
// -update it writes the sections it built instead.
func TestLedger(t *testing.T) {
	doc := map[string]json.RawMessage{}
	blob, err := os.ReadFile(ledgerFile)
	switch {
	case err == nil:
		if err := json.Unmarshal(blob, &doc); err != nil {
			t.Fatalf("%s: %v", ledgerFile, err)
		}
	case !*update || !os.IsNotExist(err):
		t.Fatal(err)
	}
	built := map[string]bool{}
	for _, s := range ledgerSections {
		built[s.name] = true
		t.Run(s.name, func(t *testing.T) {
			got, err := json.Marshal(s.build(t))
			if err != nil {
				t.Fatal(err)
			}
			if *update {
				doc[s.name] = got
				return
			}
			diffs, err := ledgerDiff(s.name, got, doc[s.name])
			if err != nil {
				t.Fatal(err)
			}
			if len(diffs) > 0 {
				t.Errorf("section %s differs from LEDGER.json (re-pin with `make ledger` if the change is intended):\n%s",
					s.name, formatDiffs(diffs))
			}
		})
	}
	for name := range doc {
		if !built[name] {
			if *update {
				delete(doc, name)
			} else {
				t.Errorf("LEDGER.json section %s has no builder (re-pin with `make ledger` to drop it)", name)
			}
		}
	}
	if *update && !t.Failed() {
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerFile, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// fieldDiff is one differing leaf of a section: its path and both values
// as JSON text.
type fieldDiff struct{ path, got, want string }

// ledgerDiff compares the encoding of a freshly built section with the
// committed one byte for byte, so a float stays pinned to its last bit. It
// returns nil when they match, and otherwise one fieldDiff per differing
// field path.
func ledgerDiff(name string, got, want json.RawMessage) ([]fieldDiff, error) {
	var w bytes.Buffer
	if want != nil {
		if err := json.Compact(&w, want); err != nil {
			return nil, fmt.Errorf("%s: committed section: %w", name, err)
		}
	}
	if bytes.Equal(got, w.Bytes()) {
		return nil, nil
	}
	gv, err := decodeJSON(got)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	wv := any(absent{})
	if want != nil {
		if wv, err = decodeJSON(want); err != nil {
			return nil, fmt.Errorf("%s: committed section: %w", name, err)
		}
	}
	var diffs []fieldDiff
	diffJSON(name, gv, wv, &diffs)
	if len(diffs) == 0 {
		diffs = append(diffs, fieldDiff{name, "same values, encoded differently", "(field order or number format)"})
	}
	return diffs, nil
}

// absent marks a field or element present on one side only.
type absent struct{}

// decodeJSON keeps numbers as their literal text, so the diff shows them
// as encoded.
func decodeJSON(b []byte) (any, error) {
	d := json.NewDecoder(bytes.NewReader(b))
	d.UseNumber()
	var v any
	err := d.Decode(&v)
	return v, err
}

func diffJSON(path string, got, want any, out *[]fieldDiff) {
	gm, gok := got.(map[string]any)
	wm, wok := want.(map[string]any)
	if gok && wok {
		keys := maps.Clone(wm)
		maps.Copy(keys, gm)
		for _, k := range slices.Sorted(maps.Keys(keys)) {
			diffJSON(path+"."+k, member(gm, k), member(wm, k), out)
		}
		return
	}
	gs, gok := got.([]any)
	ws, wok := want.([]any)
	if gok && wok {
		for i := range max(len(gs), len(ws)) {
			diffJSON(fmt.Sprintf("%s[%d]", path, i), elem(gs, i), elem(ws, i), out)
		}
		return
	}
	if g, w := leafText(got), leafText(want); g != w {
		*out = append(*out, fieldDiff{path, g, w})
	}
}

func member(m map[string]any, k string) any {
	if v, ok := m[k]; ok {
		return v
	}
	return absent{}
}

func elem(s []any, i int) any {
	if i < len(s) {
		return s[i]
	}
	return absent{}
}

func leafText(v any) string {
	if _, ok := v.(absent); ok {
		return "(absent)"
	}
	b, _ := json.Marshal(v) // v was decoded from JSON, so it encodes
	return string(b)
}

func formatDiffs(diffs []fieldDiff) string {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  field\tgot\twant")
	for _, d := range diffs {
		fmt.Fprintf(tw, "  %s\t%s\t%s\n", d.path, d.got, d.want)
	}
	tw.Flush()
	return sb.String()
}

// steadyLedger is the steady section (also the `vlserver -baseline` input)
// or, withoutJournal, the steady_hash_only section: the incremental
// pipeline's cold and steady round over the modeled KGDB link. Every cost
// is virtual.
func steadyLedger(t *testing.T, withoutJournal bool) any {
	rep, err := perf.MeasureSteadyState(kernelsim.Options{}, target.DefaultKGDB, withoutJournal)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// linkLedger is the link traffic of a set of rounds: opened transfers,
// continuation packets and bytes read as the RSP client counted them, and
// the modeled KGDB time the latency layer charged for them (journal polls
// and hash exchanges included).
type linkLedger struct {
	Transactions  uint64        `json:"transactions"`
	Continuations uint64        `json:"continuations"`
	Bytes         uint64        `json:"bytes"`
	Link          time.Duration `json:"link_ns"`
}

func (l *linkLedger) add(o linkLedger) {
	l.Transactions += o.Transactions
	l.Continuations += o.Continuations
	l.Bytes += o.Bytes
	l.Link += o.Link
}

// attachRow is one stub's row of the kgdb_attach section.
type attachRow struct {
	Stub  string     `json:"stub"`
	Cold  linkLedger `json:"cold"`
	Stops linkLedger `json:"stops"`
}

// ledgerStops is the number of stop events after each cold round, as in
// the loopback benchmark's kgdb_attach unit.
const ledgerStops = 3

// ledgerCases is a fixed list of kgdb_attach-shaped inputs: configs from
// the procs 3–7 × churn 0–4 grid, each with a seeded 4-figure subset.
func ledgerCases() []struct {
	opts kernelsim.Options
	figs []vclstdlib.Figure
} {
	rng := rand.New(rand.NewSource(4))
	all := vclstdlib.Figures()
	var out []struct {
		opts kernelsim.Options
		figs []vclstdlib.Figure
	}
	for i := 0; i < 20; i++ {
		c := struct {
			opts kernelsim.Options
			figs []vclstdlib.Figure
		}{opts: kernelsim.Options{Processes: 3 + i%5, Churn: (i + i/5) % 5}}
		for _, fi := range rng.Perm(len(all))[:4] {
			c.figs = append(c.figs, all[fi])
		}
		out = append(out, c)
	}
	return out
}

// attachLedger runs one case over a 512-byte RSP stub built with stub
// behind the KGDB model: a cold round, then ledgerStops × (workload step,
// advance, round).
func attachLedger(t *testing.T, opts kernelsim.Options, figs []vclstdlib.Figure, stub ...gdbrsp.ServerOption) (cold, stops linkLedger) {
	t.Helper()
	k := kernelsim.FromTemplate(opts)
	defer k.Mem.Release()
	sess, err := perf.NewRSPSession(k, append(stub, gdbrsp.WithPacketSize(512))...)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	lat := target.WithLatency(sess.Client, target.DefaultKGDB)
	x := core.NewIncrementalExtractor(k, lat, figs, nil)
	st := sess.Client.Stats()
	round := func() linkLedger {
		_, bytes0, txns0 := st.Totals()
		conts0, v0 := st.Continuations.Load(), lat.VirtualElapsed()
		if _, err := x.Round(); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		_, bytes1, txns1 := st.Totals()
		return linkLedger{txns1 - txns0, st.Continuations.Load() - conts0, bytes1 - bytes0, lat.VirtualElapsed() - v0}
	}
	cold = round()
	wl := kernelsim.NewWorkload(k)
	for i := 0; i < ledgerStops; i++ {
		wl.Step()
		_, bytes0, txns0 := st.Totals()
		conts0, v0 := st.Continuations.Load(), lat.VirtualElapsed()
		x.Advance()
		_, bytes1, txns1 := st.Totals()
		stops.add(linkLedger{txns1 - txns0, st.Continuations.Load() - conts0, bytes1 - bytes0, lat.VirtualElapsed() - v0})
		stops.add(round())
	}
	return cold, stops
}

// kgdbAttachLedger is the kgdb_attach section: the link traffic of the
// loopback benchmark's kgdb_attach shape, summed over ledgerCases, so a
// change to the read path that moves link traffic shows as an exact delta
// before any wall-clock A/B. One row per stub: both revalidation annexes
// (the stub kgdb_attach runs), the memory-hash annex only, and neither (a
// stock KGDB stub, the paper's setting).
func kgdbAttachLedger(t *testing.T) any {
	stubs := []struct {
		name string
		opts []gdbrsp.ServerOption
	}{
		{"both-annexes", nil},
		{"hash-only", []gdbrsp.ServerOption{gdbrsp.WithoutDirtyAnnex()}},
		{"stock", []gdbrsp.ServerOption{gdbrsp.WithoutDirtyAnnex(), gdbrsp.WithoutHashAnnex()}},
	}
	rows := make([]attachRow, len(stubs))
	for i, stub := range stubs {
		rows[i].Stub = stub.name
		for _, c := range ledgerCases() {
			cl, sl := attachLedger(t, c.opts, c.figs, stub.opts...)
			rows[i].Cold.add(cl)
			rows[i].Stops.add(sl)
		}
	}
	return rows
}

// stepLookStops is the number of stops of the step_look section.
const stepLookStops = 64

// stepLook is the step_look section: where every figure pass of the
// step_look shape (procs 5, churn 4, every stdlib figure, one workload step
// per stop) goes over stepLookStops stops. A pass is either served whole
// from the prior round (its pages are unchanged, or the bytes it read are)
// or re-extracted; a re-extraction either changes the pane or comes out
// Equal to the displayed graph. Boxes are counted for the cold round and
// the stops apart: built from target reads, or reused from the memo.
type stepLook struct {
	Passes         int    `json:"figure_passes"`
	Reextracted    int    `json:"figures_reextracted"`
	Reused         int    `json:"figures_reused"`
	Unchanged      int    `json:"reextracted_equal"`
	ColdBoxBuilds  uint64 `json:"cold_box_builds"`
	ColdBoxReuses  uint64 `json:"cold_box_reuses"`
	StopsBoxBuilds uint64 `json:"stops_box_builds"`
	StopsBoxReuses uint64 `json:"stops_box_reuses"`
}

func stepLookLedger(t *testing.T) any {
	k := kernelsim.Build(kernelsim.Options{Processes: 5, Churn: 4})
	w := kernelsim.NewWorkload(k)
	o := obs.NewObserver()
	figs := vclstdlib.Figures()
	x := core.NewIncrementalExtractor(k, k.Target(), figs, o)
	if _, err := x.Round(); err != nil {
		t.Fatalf("cold round: %v", err)
	}
	l := stepLook{ColdBoxBuilds: o.BoxBuilds.Value(), ColdBoxReuses: o.BoxReuses.Value()}
	reused0, unchanged0 := o.FigureReuses.Value(), o.FigureUnchanged.Value()
	for round := 0; round < stepLookStops; round++ {
		w.Step()
		x.Advance()
		out, err := x.Round()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for _, rr := range out {
			l.Passes++
			if !rr.Reused {
				l.Reextracted++
			}
		}
	}
	l.Reused = int(o.FigureReuses.Value() - reused0)
	l.Unchanged = int(o.FigureUnchanged.Value() - unchanged0)
	l.StopsBoxBuilds = o.BoxBuilds.Value() - l.ColdBoxBuilds
	l.StopsBoxReuses = o.BoxReuses.Value() - l.ColdBoxReuses
	if l.Passes != stepLookStops*len(figs) || l.Reused+l.Reextracted != l.Passes {
		t.Fatalf("ledger does not balance: %d passes, %d reused, %d re-extracted", l.Passes, l.Reused, l.Reextracted)
	}
	return l
}

// ledgerDiff on a small synthetic section: an indented committed copy
// matches, and changing one nested field in its last bit reports exactly
// that field's path with both values.
func TestLedgerDiff(t *testing.T) {
	type at struct {
		MS float64 `json:"ms"`
		N  int     `json:"n"`
	}
	type row struct {
		ID string `json:"id"`
		At at     `json:"at"`
	}
	sec := struct {
		Rows []row `json:"rows"`
	}{[]row{{"a", at{1.5, 2}}, {"b", at{468.6, 3}}}}
	want, err := json.MarshalIndent(sec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(sec)
	if err != nil {
		t.Fatal(err)
	}
	if diffs, err := ledgerDiff("demo", got, want); err != nil || diffs != nil {
		t.Fatalf("identical section: %v, %v", diffs, err)
	}

	sec.Rows[1].At.MS = 468.6000000000001
	if got, err = json.Marshal(sec); err != nil {
		t.Fatal(err)
	}
	diffs, err := ledgerDiff("demo", got, want)
	if err != nil {
		t.Fatal(err)
	}
	if w := []fieldDiff{{"demo.rows[1].at.ms", "468.6000000000001", "468.6"}}; !slices.Equal(diffs, w) {
		t.Errorf("diffs = %q, want %q", diffs, w)
	}
}
