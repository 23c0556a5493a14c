package core_test

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/gdbrsp"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/target"
	"visualinux/internal/vclstdlib"
)

// faultyTarget fails every read that touches the armed page, modeling a
// range that became unreadable. It refuses zero-copy page aliasing, so
// every fill above it is a read it can fail.
type faultyTarget struct {
	target.Layer
	page atomic.Uint64 // armed page base; 0 = disarmed
}

var errFault = errors.New("injected read fault")

func (f *faultyTarget) ReadMemory(addr uint64, buf []byte) error {
	if p := f.page.Load(); p != 0 && addr < p+target.PageSize && p < addr+uint64(len(buf)) {
		return errFault
	}
	return f.Target.ReadMemory(addr, buf)
}

// PageData refuses PageProvider.
func (*faultyTarget) PageData(uint64) ([]byte, bool) { return nil, false }

// hashOnly refuses the DirtyTracker of the chain below: without a write
// journal every stale page is revalidated by content hashes.
type hashOnly struct{ target.Layer }

func (hashOnly) DirtySince(uint64) ([]target.Range, uint64, bool) { return nil, 0, false }

// unreadByte returns the first byte of page that no range of reads covers.
func unreadByte(t *testing.T, reads []target.Range, page uint64) uint64 {
	t.Helper()
	for a := page; a < page+target.PageSize; a++ {
		covered := false
		for _, r := range reads {
			if a >= r.Addr && a < r.Addr+r.Size {
				covered = true
				break
			}
		}
		if !covered {
			return a
		}
	}
	t.Fatalf("every byte of page %#x is read", page)
	return 0
}

// flipByte inverts the byte at addr through the kernel's journaled memory.
func flipByte(k *kernelsim.Kernel, addr uint64) {
	b, _ := k.Mem.ReadU8(addr)
	k.Mem.WriteU8(addr, ^b)
}

// The figure-level skip has three outcomes, and each must leave the pane
// exactly as a cold extraction of the same state would show it, over every
// revalidation path (write journal, content hashes, RSP):
//   - a write into a page the figure reads, at bytes it does not read: the
//     content witness holds, so the prior result is served with no run;
//   - a write to a byte it reads but does not show: it re-extracts to an
//     Equal graph and the pane keeps its version;
//   - a write to a byte it shows: the version bumps.
//
// A witness that cannot be read never serves the prior result.
func TestFigureWitnessOutcomes(t *testing.T) {
	fig := mustFigure(t, "3-6")
	for _, tc := range []struct {
		name  string
		chain func(t *testing.T, k *kernelsim.Kernel, f *faultyTarget) target.Target
	}{
		{"journal", func(_ *testing.T, _ *kernelsim.Kernel, f *faultyTarget) target.Target { return f }},
		{"hash-only", func(_ *testing.T, _ *kernelsim.Kernel, f *faultyTarget) target.Target {
			return hashOnly{target.Layer{Target: f}}
		}},
		{"rsp", func(t *testing.T, k *kernelsim.Kernel, f *faultyTarget) target.Target {
			srv, err := gdbrsp.Serve("127.0.0.1:0", f)
			if err != nil {
				t.Fatalf("serve: %v", err)
			}
			t.Cleanup(func() { srv.Close() })
			c, err := gdbrsp.Dial(srv.Addr(), k.Reg, k.Target().Symbols())
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			t.Cleanup(func() { c.Close() })
			return c
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := kernelsim.Build(kernelsim.Options{})
			f := &faultyTarget{Layer: target.Layer{Target: k.Target()}}
			o := obs.NewObserver()
			x := core.NewIncrementalExtractor(k, tc.chain(t, k, f), []vclstdlib.Figure{fig}, o)
			out, err := x.Round()
			if err != nil {
				t.Fatalf("cold round: %v", err)
			}
			prior, v0 := out[0], out[0].Pane.Version
			// init's task_struct: the figure reads its pid and comm, and
			// far from all of the page around them.
			commAddr := k.ByPID[1].FieldAddr("comm")
			page := commAddr &^ (target.PageSize - 1)

			round := func(name string, mutate func()) core.RoundResult {
				t.Helper()
				mutate()
				x.Advance()
				extractions := o.Extractions.Value()
				out, err := x.Round()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				rr := out[0]
				if got, want := contentJSON(rr.Pane.Graph), contentJSON(coldGraph(t, k, fig)); !bytes.Equal(got, want) {
					t.Fatalf("%s: pane JSON diverged from a cold extraction", name)
				}
				if ran := o.Extractions.Value() != extractions; ran == rr.Reused {
					t.Fatalf("%s: reused %v, but the figure ran %v", name, rr.Reused, ran)
				}
				return rr
			}

			rr := round("unread byte", func() { flipByte(k, unreadByte(t, prior.Res.Reads, page)) })
			if !rr.Reused || rr.Res != prior.Res || rr.Pane.Version != v0 {
				t.Fatalf("unread byte: reused %v, same result %v, version %d→%d; want served whole",
					rr.Reused, rr.Res == prior.Res, v0, rr.Pane.Version)
			}

			unchanged := o.FigureUnchanged.Value()
			rr = round("read, not shown", func() { scribbleComm(k, 1) })
			if rr.Reused || o.FigureUnchanged.Value() != unchanged+1 || rr.Pane.Version != v0 {
				t.Fatalf("read, not shown: reused %v, unchanged +%d, version %d→%d; want re-extracted to the same version",
					rr.Reused, o.FigureUnchanged.Value()-unchanged, v0, rr.Pane.Version)
			}

			rr = round("shown", func() { k.ByPID[1].SetStr("comm", "renamed") })
			if rr.Reused || rr.Pane.Version != v0+1 {
				t.Fatalf("shown: reused %v, version %d→%d; want a bump", rr.Reused, v0, rr.Pane.Version)
			}

			// A write the witness would prove harmless, while the page it
			// lies in cannot be read: the figure must not be served whole.
			flipByte(k, unreadByte(t, rr.Res.Reads, page))
			f.page.Store(page)
			x.Advance()
			out, _ = x.Round()
			if out[0].Reused {
				t.Fatal("failed witness read: served the prior result whole")
			}
			f.page.Store(0)
			round("after the fault", func() {})
		})
	}
}
