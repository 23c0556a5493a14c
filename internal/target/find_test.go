package target

import "testing"

// TestCapabilityReachability pins the one-lookup rule across every wrapper
// the live path stacks: a Snapshot over a CoW-forked sim takes the
// zero-copy fill exactly when no Latency (which refuses PageProvider) sits
// in the chain, and Find reaches the memory map, content hashes and the
// write journal through every wrapper, the Snapshot included.
func TestCapabilityReachability(t *testing.T) {
	for _, tc := range []struct {
		name     string
		chain    func(*Sim) Target
		zeroCopy bool
	}{
		{"Sim", func(s *Sim) Target { return s }, true},
		{"WithStats", func(s *Sim) Target { return WithStats(s) }, true},
		{"Instrument", func(s *Sim) Target { return Instrument(s, nil) }, true},
		{"Instrument(WithStats)", func(s *Sim) Target { return Instrument(WithStats(s), nil) }, true},
		{"WithLatency", func(s *Sim) Target { return WithLatency(s, DefaultKGDB) }, false},
		{"Instrument(WithLatency)", func(s *Sim) Target { return Instrument(WithLatency(s, DefaultKGDB), nil) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, sim, base := cowFixture(t, 2)
			chain := tc.chain(sim)
			s := NewSnapshot(chain)
			readPage(t, s, base)
			if got := s.ZeroCopyFills() > 0; got != tc.zeroCopy {
				t.Errorf("zero-copy fill taken = %v, want %v (%d fills)", got, tc.zeroCopy, s.ZeroCopyFills())
			}
			if reads := chain.Stats().Reads.Load(); (reads == 0) != tc.zeroCopy {
				t.Errorf("fill issued %d reads on the chain, zero-copy expected %v", reads, tc.zeroCopy)
			}
			for _, layer := range []Target{chain, s} {
				if _, ok := Find[RangeProber](layer); !ok {
					t.Errorf("%T: RangeProber unreachable", layer)
				}
				if _, ok := Find[PageHasher](layer); !ok {
					t.Errorf("%T: PageHasher unreachable", layer)
				}
				if _, ok := Find[DirtyTracker](layer); !ok {
					t.Errorf("%T: DirtyTracker unreachable", layer)
				}
			}
			if _, ok := ClipMapped(s, base, PageSize); !ok {
				t.Error("ClipMapped through the chain answered ok=false")
			}
			if _, ok := HashBlocks(s, base, PageSize); !ok {
				t.Error("HashBlocks through the chain answered ok=false")
			}
			if _, _, ok := DirtySince(s, ^uint64(0)); !ok {
				t.Error("DirtySince through the chain answered ok=false")
			}
		})
	}
}
