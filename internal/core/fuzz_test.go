package core_test

import (
	"bytes"
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/target"
	"visualinux/internal/vclstdlib"
)

// fuzzWrites caps the journaled writes one input applies between rounds.
const fuzzWrites = 4

// FuzzIncrementalMatchesCold is the differential fuzzer of the figure-level
// skip: after writes aimed at what a figure read, an incremental round —
// served whole by the page check or the content witness, or re-extracted
// through the memo — must show what a cold extraction of the same state
// shows. Either both fail with the same error, or both succeed with the
// same pane JSON, stats aside.
//
// The input picks a figure, a procs-2 kernel (its churn rounds, 0-3) and
// up to fuzzWrites one-byte writes of 4 input bytes each: a recorded read
// range, a mode, an offset and the value. An even mode writes a byte of the
// range, which the figure read; an odd mode writes any byte of the range's
// first page, which the figure may not have read. Both outcomes of the skip
// are reachable from every input.
func FuzzIncrementalMatchesCold(f *testing.F) {
	figs := vclstdlib.Figures()
	f.Add(uint8(1), uint8(0), []byte{})                                   // 3-6, no write
	f.Add(uint8(1), uint8(0), []byte{0, 0, 3, 'x', 0, 1, 31, 0xff})       // 3-6, a read byte and a page neighbour
	f.Add(uint8(4), uint8(1), []byte{2, 0, 0, 0, 5, 255, 7, 1})           // 7-1, churned kernel
	f.Add(uint8(7), uint8(3), []byte{9, 4, 1, 0xaa, 9, 5, 2, 0x55, 1, 2}) // 9-2, trailing bytes ignored
	f.Fuzz(func(t *testing.T, figIdx, seed uint8, writes []byte) {
		fig := figs[int(figIdx)%len(figs)]
		opts := kernelsim.Options{Processes: 2, Churn: int(seed % 4)}
		k := kernelsim.FromTemplate(opts)
		x := core.NewIncrementalExtractor(k, k.Target(), []vclstdlib.Figure{fig}, nil)
		out, err := x.Round()
		if err != nil {
			t.Fatalf("cold round of %s on %+v: %v", fig.ID, opts, err)
		}
		reads := out[0].Res.Reads
		if len(reads) == 0 {
			t.Fatalf("figure %s recorded no reads", fig.ID)
		}
		for i := 0; i+4 <= len(writes) && i < 4*fuzzWrites; i += 4 {
			rg := reads[int(writes[i])%len(reads)]
			mode, off := writes[i+1], uint64(writes[i+2])
			addr := rg.Addr + off%rg.Size
			if mode&1 == 1 {
				addr = rg.Addr&^(target.PageSize-1) + uint64(mode>>1)*32 + off%32
			}
			k.Mem.Write(addr, []byte{writes[i+3]})
		}
		x.Advance()
		out, err = x.Round()

		cold := core.NewIncrementalExtractor(k, k.Target(), []vclstdlib.Figure{fig}, nil)
		want, werr := cold.Round()
		if (err == nil) != (werr == nil) {
			t.Fatalf("figure %s: incremental error %v, cold error %v", fig.ID, err, werr)
		}
		if err != nil {
			if err.Error() != werr.Error() {
				t.Fatalf("figure %s: error text diverges:\nincremental: %v\ncold:        %v", fig.ID, err, werr)
			}
			return
		}
		if got, w := contentJSON(out[0].Pane.Graph), contentJSON(want[0].Pane.Graph); !bytes.Equal(got, w) {
			t.Fatalf("figure %s (reused %v): pane JSON diverged from a cold extraction", fig.ID, out[0].Reused)
		}
	})
}
