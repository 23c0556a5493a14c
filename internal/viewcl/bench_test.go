package viewcl_test

import (
	"testing"

	"visualinux/internal/kernelsim"
	"visualinux/internal/target"
	"visualinux/internal/vclstdlib"
	"visualinux/internal/viewcl"
)

// The engine benchmarks, in pairs: each compiled-engine benchmark has a
// tree-walking twin that runs the same work through the test-only oracle.

// BenchmarkCompiledCold sweeps all Table 2 figures per iteration through the
// compiled closure-chain engine (the pprof entry point for the extraction
// core).
func BenchmarkCompiledCold(b *testing.B) {
	benchCold(b, false)
}

// BenchmarkInterpretedCold is the same sweep through the tree walker — the
// pre-compilation baseline.
func BenchmarkInterpretedCold(b *testing.B) {
	benchCold(b, true)
}

func benchCold(b *testing.B, interpret bool) {
	k := kernelsim.Build(kernelsim.Options{})
	in := interpOver(k.Target())
	figs := vclstdlib.Figures()
	for _, f := range figs {
		if _, err := runEngine(in, interpret, f.ID, f.Program); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range figs {
			if _, err := runEngine(in, interpret, f.ID, f.Program); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSteadyRoundCompiled measures a live steady round: one small
// mutation and a stop boundary per iteration, so dirtied figures re-extract
// through their memos with the compiled engine.
func BenchmarkSteadyRoundCompiled(b *testing.B) {
	benchSteadyMutating(b, false)
}

// BenchmarkSteadyRoundInterpreted is the same rounds through the tree
// walker.
func BenchmarkSteadyRoundInterpreted(b *testing.B) {
	benchSteadyMutating(b, true)
}

// benchSteadyMutating keeps what core.IncrementalExtractor keeps for its
// figures — one snapshot, one memoizing interpreter per figure, and each
// figure's last result, served whole while its page read set is unchanged —
// and drives the same pipe write and stop boundary per iteration for both
// engines. It leaves out the extractor's content witness on purpose: the
// pipe write changes no byte a figure reads, so with the witness nothing
// would re-extract and the engines would have no work to compare.
func benchSteadyMutating(b *testing.B, interpret bool) {
	k := kernelsim.Build(kernelsim.Options{})
	snap := target.NewSnapshot(k.Target())
	figs := vclstdlib.Figures()
	type figState struct {
		in    *viewcl.Interp
		prior *viewcl.Result
		gen   uint64
	}
	states := make([]figState, len(figs))
	for i := range states {
		states[i].in = interpOver(snap)
		states[i].in.Memo = viewcl.NewMemo(snap)
	}
	round := func() {
		for i, f := range figs {
			st := &states[i]
			if st.prior != nil && snap.RangesUnchangedSince(st.prior.ReadSet, st.gen) {
				st.gen = snap.Generation()
				continue
			}
			res, err := runEngine(st.in, interpret, "fig"+f.ID, f.Program)
			if err != nil {
				b.Fatal(err)
			}
			st.prior, st.gen = res, snap.Generation()
		}
	}
	round()
	round()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.PipeWrite(k.DirtyPipe, 64); err != nil {
			b.Fatal(err)
		}
		snap.Advance()
		round()
	}
}
