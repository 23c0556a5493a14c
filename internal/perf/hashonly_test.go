package perf

import (
	"testing"

	"visualinux/internal/ctypes"
	"visualinux/internal/mem"
	"visualinux/internal/target"
)

// hashOnlyTarget must refuse the write journal of the chain below while
// content hashes and the memory map stay reachable through it — the
// no-journal personality of the steady-state report.
func TestHashOnlyTargetRefusesJournal(t *testing.T) {
	m := mem.New()
	base := uint64(0x4000_0000)
	m.Write(base, make([]byte, target.PageSize))
	h := hashOnlyTarget{target.Layer{Target: target.WithLatency(target.NewSim(m, ctypes.NewRegistry()), target.DefaultKGDB)}}

	if d, ok := target.Find[target.DirtyTracker](h); !ok || d != target.DirtyTracker(h) {
		t.Fatalf("DirtyTracker found at %T, want the hashOnlyTarget refusal", d)
	}
	if _, _, ok := target.DirtySince(h, ^uint64(0)); ok {
		t.Error("DirtySince answered through hashOnlyTarget")
	}
	if _, ok := target.HashBlocks(h, base, target.PageSize); !ok {
		t.Error("HashBlocks unreachable through hashOnlyTarget")
	}
	if _, ok := target.ClipMapped(h, base, target.PageSize); !ok {
		t.Error("ClipMapped unreachable through hashOnlyTarget")
	}
}
