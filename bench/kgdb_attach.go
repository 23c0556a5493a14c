package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"visualinux/internal/core"
	"visualinux/internal/gdbrsp"
	"visualinux/internal/graph"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/render"
	"visualinux/internal/target"
	"visualinux/internal/vclstdlib"
	"visualinux/internal/viewcl"
)

// kgdb_attach is the paper's Table 4 slow-link attach, repeated: a unit
// forks a kernel from its template, serves it over a gdbrsp stub with a
// 512-byte PacketSize, dials it behind the KGDB latency model, runs a
// cold extraction round of four figures and then three stop events
// (workload step, snapshot advance, delta round). Nearly all its work is
// in gdbrsp, target and cold ViewCL; none is in server, stream or ViewQL.
//
// The modeled link time is kept on the latency model's virtual clock and
// never added to wall time. It is a pure function of the kernel config and
// figure subset, so every repeat of a config must reproduce it exactly.

// kgdbStops is the number of stop events after each cold attach.
const kgdbStops = 3

// kgdbPacketSize is a serial KGDB stub's advertised PacketSize.
const kgdbPacketSize = 512

// figsPerAttach is the number of stdlib figures each attach extracts.
const figsPerAttach = 4

// casesPerConfig is the number of figure subsets per kernel config.
const casesPerConfig = 10

// kgdbCase is one attach input: a kernel config and a figure subset.
type kgdbCase struct {
	opts kernelsim.Options
	figs []vclstdlib.Figure
	// Modeled link time of the cold round and of each stop, fixed by the
	// case's first attach; every later attach must repeat them.
	link []time.Duration
}

type kgdbAttach struct {
	tc    *tracing
	cases []*kgdbCase
	next  int
	acc   counters // layer counters, accumulated unit by unit
}

// kgdbCases generates the seeded attach cases, in seeded order. Every
// config of the grid procs 3–7 × churn 0–4 gets casesPerConfig cases, each
// with its own seeded 4-figure subset. Figures differ several-fold in
// cost, so a handful of fixed subsets would make the median depend on how
// the seed grouped them; many independent subsets sample the same cost
// distribution whatever the seed.
func kgdbCases(seed uint64) []*kgdbCase {
	rng := newRand(seed, "kgdb_attach")
	all := vclstdlib.Figures()
	var cases []*kgdbCase
	for procs := 3; procs <= 7; procs++ {
		for churn := 0; churn <= 4; churn++ {
			for i := 0; i < casesPerConfig; i++ {
				c := &kgdbCase{opts: kernelsim.Options{Processes: procs, Churn: churn}}
				for _, fi := range rng.Perm(len(all))[:figsPerAttach] {
					c.figs = append(c.figs, all[fi])
				}
				cases = append(cases, c)
			}
		}
	}
	rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	return cases
}

// prepareKGDBAttach proves, for the first case of every kernel config,
// that the extraction over the RSP link is byte-identical to the one over
// the in-process target.
func prepareKGDBAttach(e *env) error {
	checked := make(map[kernelsim.Options]bool)
	for _, c := range kgdbCases(e.seed) {
		if !checked[c.opts] {
			checked[c.opts] = true
			if err := checkRSPIdentical(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// firstAttach is the attach a developer waits for before the first stop
// event: the whole stdlib, cold, on the middle config of the grid. It is
// the same for every seed, so set-up time does not depend on the seed.
var firstAttach = kgdbCase{opts: kernelsim.Options{Processes: 5, Churn: 2}, figs: vclstdlib.Figures()}

// setupKGDBAttach generates the cases, makes sure every config's kernel
// template is built, so that no attach pays for building one, and makes
// the first attach.
func setupKGDBAttach(e *env) (instance, error) {
	w := &kgdbAttach{tc: e.tc, acc: counters{}, cases: kgdbCases(e.seed)}
	for _, c := range w.cases {
		kernelsim.TemplateFor(c.opts)
	}
	a, err := attach(&firstAttach, nil, nil)
	if err != nil {
		return nil, err
	}
	defer a.close()
	if _, err := a.x.Round(); err != nil {
		return nil, fmt.Errorf("first attach %+v: %w", firstAttach.opts, err)
	}
	return w, nil
}

// checkRSPIdentical extracts kc's figures over the in-process target
// and once over the RSP link and compares the VPlots byte for byte.
func checkRSPIdentical(kc *kgdbCase) error {
	k := kernelsim.FromTemplate(kc.opts)
	defer k.Mem.Release()
	want, err := plotJSON(core.NewIncrementalExtractor(k, k.Target(), kc.figs, nil))
	if err != nil {
		return fmt.Errorf("in-process extraction %+v: %w", kc.opts, err)
	}
	a, err := attach(kc, nil, nil)
	if err != nil {
		return err
	}
	defer a.close()
	got, err := plotJSON(a.x)
	if err != nil {
		return fmt.Errorf("RSP extraction %+v: %w", kc.opts, err)
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			return mismatch("figure %s over RSP differs from the in-process VPlot (%+v)", kc.figs[i].ID, kc.opts)
		}
	}
	return nil
}

// plotJSON runs x's cold round and serializes every figure's VPlot. The
// extraction statistics (duration, link traffic) describe how the plot was
// read, not what it shows, so they are left out.
func plotJSON(x *core.IncrementalExtractor) ([][]byte, error) {
	results, err := x.Round()
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(results))
	for i, r := range results {
		jg := render.ToJSON(r.Res.Graph)
		jg.Stats = graph.Stats{}
		if out[i], err = json.Marshal(jg); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// attachment is one live debugging link: a forked kernel, its stub, and
// the extractor reading through the modeled KGDB link.
type attachment struct {
	k   *kernelsim.Kernel
	srv *gdbrsp.Server
	cl  *gdbrsp.Client
	lat *target.Latency
	x   *core.IncrementalExtractor
}

// attach forks kc's kernel and attaches an extractor over a fresh RSP
// link. Spans go under sp; link reads are charged to tc's RSP clock.
func attach(kc *kgdbCase, sp *obs.Span, tc *tracing) (*attachment, error) {
	a := &attachment{}
	_ = tc.timed(sp, "kernelsim.FromTemplate", clkFork, func() error {
		a.k = kernelsim.FromTemplate(kc.opts)
		return nil
	})
	err := tc.timed(sp, "gdbrsp.attach", clkAttach, func() error {
		srv, err := gdbrsp.Serve("127.0.0.1:0", a.k.Target(), gdbrsp.WithPacketSize(kgdbPacketSize))
		if err != nil {
			return err
		}
		a.srv = srv
		a.cl, err = gdbrsp.Dial(srv.Addr(), a.k.Reg, a.k.Target().Symbols())
		return err
	})
	if err != nil {
		a.close()
		return nil, err
	}
	a.lat = target.WithLatency(timedLink{a.cl, tc}, target.DefaultKGDB)
	a.x = core.NewIncrementalExtractor(a.k, a.lat, kc.figs, nil)
	return a, nil
}

func (a *attachment) close() {
	if a.cl != nil {
		_ = a.cl.Close()
	}
	if a.srv != nil {
		_ = a.srv.Close()
	}
	a.k.Mem.Release()
}

// timedLink charges the wall time of every read crossing the RSP link to
// the RSP clock. Embedding keeps every other capability of the client.
type timedLink struct {
	*gdbrsp.Client
	tc *tracing
}

func (t timedLink) ReadMemory(addr uint64, buf []byte) error {
	t0 := time.Now()
	err := t.Client.ReadMemory(addr, buf)
	t.tc.charge(clkRSPRead, time.Since(t0))
	return err
}

func (t timedLink) HashBlocks(addr, size uint64) ([]uint64, bool) {
	t0 := time.Now()
	h, ok := t.Client.HashBlocks(addr, size)
	t.tc.charge(clkRSPRead, time.Since(t0))
	return h, ok
}

func (t timedLink) DirtySince(mark uint64) ([]target.Range, uint64, bool) {
	t0 := time.Now()
	r, next, ok := t.Client.DirtySince(mark)
	t.tc.charge(clkRSPRead, time.Since(t0))
	return r, next, ok
}

func (w *kgdbAttach) drive(deadline time.Time, rec *recorder) {
	closedLoop(deadline, rec, func(sp *obs.Span) error {
		kc := w.cases[w.next%len(w.cases)]
		w.next++
		return w.unit(sp, rec, kc)
	})
}

func (w *kgdbAttach) unit(sp *obs.Span, rec *recorder, kc *kgdbCase) error {
	a, err := attach(kc, sp, w.tc)
	if err != nil {
		return err
	}
	defer a.close()
	w.acc["stops"] += kgdbStops
	var last time.Time
	a.x.OnFigure = func(_ int, _ vclstdlib.Figure, reused bool, res *viewcl.Result) {
		now := time.Now()
		w.acc["figures"]++
		if reused {
			w.acc["figure_reuses"]++
		} else {
			w.tc.charge(clkExtract, now.Sub(last))
			w.acc["box_reuses"] += float64(res.BoxesReused)
			w.acc["box_builds"] += float64(res.BoxesBuilt)
		}
		last = now
	}
	link := make([]time.Duration, 0, kgdbStops+1)
	round := func(name string) error {
		return w.tc.timed(sp, name, clkRound, func() error {
			v0 := a.lat.VirtualElapsed()
			last = time.Now()
			if _, err := a.x.Round(); err != nil {
				return err
			}
			link = append(link, a.lat.VirtualElapsed()-v0)
			return nil
		})
	}
	if err := round("core.Round cold"); err != nil {
		return err
	}
	wl := kernelsim.NewWorkload(a.k)
	for i := 0; i < kgdbStops; i++ {
		_ = w.tc.timed(sp, "kernelsim.Workload.Step", clkStep, func() error {
			wl.Step()
			return nil
		})
		a.x.Advance()
		if err := round("core.Round stop"); err != nil {
			return err
		}
	}

	snap := a.x.Snapshot()
	hits, misses := snap.CacheStats()
	w.acc["snap_hits"] += float64(hits)
	w.acc["snap_misses"] += float64(misses)
	w.acc["revalidations"] += float64(snap.Revalidations())
	w.acc["promotions"] += float64(snap.Promotions())
	w.acc["stale_refetches"] += float64(snap.StaleRefetches())
	w.acc["zero_copy"] += float64(snap.ZeroCopyFills())
	reads, nbytes, _ := a.lat.Stats().Totals()
	w.acc["target_reads"] += float64(reads)
	w.acc["target_bytes"] += float64(nbytes)
	cs := a.cl.Stats()
	w.acc["packets"] += float64(cs.Transactions.Load() + cs.Continuations.Load())

	rec.sample("link_cold", link[0])
	for _, d := range link[1:] {
		rec.sample("link_stop", d)
	}
	if kc.link == nil {
		kc.link = link
		return nil
	}
	for i := range link {
		if link[i] != kc.link[i] {
			return mismatch("modeled link time of round %d for %+v changed: %v, first attach %v",
				i, kc.opts, link[i], kc.link[i])
		}
	}
	return nil
}

func (w *kgdbAttach) counters(c counters) {
	for k, v := range w.acc {
		c[k] += v
	}
}

func (w *kgdbAttach) close() {}
