package perf_test

import (
	"math/rand"
	"testing"
	"time"

	"visualinux/internal/core"
	"visualinux/internal/gdbrsp"
	"visualinux/internal/kernelsim"
	"visualinux/internal/perf"
	"visualinux/internal/target"
	"visualinux/internal/vclstdlib"
)

// linkLedger is the link traffic of a set of rounds: opened transfers,
// continuation packets and bytes read as the RSP client counted them, and
// the modeled KGDB time the latency layer charged for them (journal polls
// and hash exchanges included).
type linkLedger struct {
	Transactions  uint64
	Continuations uint64
	Bytes         uint64
	Link          time.Duration
}

func (l *linkLedger) add(o linkLedger) {
	l.Transactions += o.Transactions
	l.Continuations += o.Continuations
	l.Bytes += o.Bytes
	l.Link += o.Link
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

// attachLedger runs one case over a 512-byte RSP stub behind the KGDB
// model: a cold round, then ledgerStops × (workload step, advance, round).
func attachLedger(t *testing.T, opts kernelsim.Options, figs []vclstdlib.Figure) (cold, stops linkLedger) {
	t.Helper()
	k := kernelsim.FromTemplate(opts)
	defer k.Mem.Release()
	sess, err := perf.NewRSPSession(k, gdbrsp.WithPacketSize(512))
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

// TestKGDBAttachLedger pins the link traffic of the loopback benchmark's
// kgdb_attach shape exactly: every number is a pure function of the
// inputs, so a change to the read path that moves link traffic shows here
// as an exact delta, host-independent, before any wall-clock A/B.
func TestKGDBAttachLedger(t *testing.T) {
	var cold, stops linkLedger
	for _, c := range ledgerCases() {
		cl, sl := attachLedger(t, c.opts, c.figs)
		cold.add(cl)
		stops.add(sl)
	}
	// Filling 1 KiB windows instead of 4 KiB pages, the cold rounds open
	// more transfers but move half the bytes in 36% fewer packets; with the
	// client's memory map following the kernel, the stops stop re-reading
	// newly mapped memory uncached.
	wantCold := linkLedger{Transactions: 514, Continuations: 1044, Bytes: 534528, Link: 3539056 * time.Microsecond}
	wantStops := linkLedger{Transactions: 195, Continuations: 83, Bytes: 62464, Link: 806432 * time.Microsecond}
	if cold != wantCold {
		t.Errorf("cold rounds: got %+v, want %+v", cold, wantCold)
	}
	if stops != wantStops {
		t.Errorf("stops: got %+v, want %+v", stops, wantStops)
	}
}
