package perf_test

import (
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/gdbrsp"
	"visualinux/internal/kernelsim"
	"visualinux/internal/perf"
	"visualinux/internal/render"
	"visualinux/internal/target"
	"visualinux/internal/vclstdlib"
)

// figRun is one figure's extraction outcome at one packet size.
type figRun struct {
	text  string // rendered graph (byte-identity oracle)
	txns  uint64 // opened link transfers
	conts uint64 // continuation chunks
	bytes uint64
	msOp  float64 // modeled cached kgdb ms for this figure
}

// runMatrix extracts every stdlib figure over an RSP stub with the given
// PacketSize, each figure behind a fresh snapshot (the live-session shape),
// and prices the traffic with the deterministic link model.
func runMatrix(t *testing.T, packetSize int) map[string]figRun {
	t.Helper()
	k := kernelsim.Build(kernelsim.Options{})
	sess, err := perf.NewRSPSession(k, gdbrsp.WithPacketSize(packetSize))
	if err != nil {
		t.Fatalf("PacketSize=%d: %v", packetSize, err)
	}
	defer sess.Close()
	if got := sess.Server.PacketSize(); got != packetSize {
		t.Fatalf("server packet size = %d, want %d", got, packetSize)
	}
	if got := sess.Client.PacketSize(); got != packetSize {
		t.Fatalf("negotiated packet size = %d, want %d", got, packetSize)
	}

	out := make(map[string]figRun)
	st := sess.Client.Stats()
	for _, fig := range vclstdlib.Figures() {
		snap := target.NewSnapshot(sess.Client)
		s := core.NewSession(snap, nil)
		_, bytes0, txns0 := st.Totals()
		conts0 := st.Continuations.Load()
		p, err := s.VPlot(fig.ID, fig.Program)
		if err != nil {
			t.Fatalf("PacketSize=%d figure %s: %v", packetSize, fig.ID, err)
		}
		_, bytes1, txns1 := st.Totals()
		r := figRun{
			text:  render.Text(p.Graph),
			txns:  txns1 - txns0,
			conts: st.Continuations.Load() - conts0,
			bytes: bytes1 - bytes0,
		}
		r.msOp = float64(target.DefaultKGDB.LinkCost(r.txns, r.conts, r.bytes).Nanoseconds()) / 1e6
		out[fig.ID] = r
	}
	return out
}

// TestRSPPacketSizeMatrix is the slow-link e2e: the same 20-figure workload
// over stubs negotiating PacketSize 512, 1024, and 4096 must yield
//
//   - byte-identical extractions (continuation reassembly is lossless),
//   - identical transaction counts (a transfer is one transaction no matter
//     how many packets its reply takes — shrinking the packet adds
//     continuations, never transactions),
//   - continuation counts that only shrink as packets grow,
//   - modeled cached kgdb-ms within 10% of the PacketSize=4096 run for every
//     figure (continuations are priced at wire turnaround, not memory-walk).
func TestRSPPacketSizeMatrix(t *testing.T) {
	sizes := []int{512, 1024, 4096}
	runs := make(map[int]map[string]figRun, len(sizes))
	for _, ps := range sizes {
		runs[ps] = runMatrix(t, ps)
	}

	ref := runs[4096]
	figs := vclstdlib.Figures()
	if len(figs) == 0 {
		t.Fatal("no stdlib figures")
	}
	for _, fig := range figs {
		base := ref[fig.ID]
		if base.text == "" {
			t.Fatalf("figure %s rendered empty at PacketSize=4096", fig.ID)
		}
		prevConts := uint64(1<<63 - 1)
		for _, ps := range sizes {
			r := runs[ps][fig.ID]
			if r.text != base.text {
				t.Errorf("figure %s: PacketSize=%d extraction differs from 4096", fig.ID, ps)
			}
			if r.txns != base.txns {
				t.Errorf("figure %s: PacketSize=%d txns = %d, want %d (packet size must not add transactions)",
					fig.ID, ps, r.txns, base.txns)
			}
			if r.bytes != base.bytes {
				t.Errorf("figure %s: PacketSize=%d bytes = %d, want %d", fig.ID, ps, r.bytes, base.bytes)
			}
			if r.conts > prevConts {
				t.Errorf("figure %s: continuations grew with packet size (%d at PacketSize=%d, %d before)",
					fig.ID, r.conts, ps, prevConts)
			}
			prevConts = r.conts
			if base.msOp > 0 {
				if ratio := r.msOp / base.msOp; ratio > 1.10 {
					t.Errorf("figure %s: PacketSize=%d modeled %.3fms/op, >10%% over 4096's %.3fms/op",
						fig.ID, ps, r.msOp, base.msOp)
				}
			}
		}
		// The small packet size must actually have exercised continuations
		// somewhere; assert on the aggregate below.
	}
	var conts512, conts4096 uint64
	for _, fig := range figs {
		conts512 += runs[512][fig.ID].conts
		conts4096 += runs[4096][fig.ID].conts
	}
	if conts512 == 0 {
		t.Error("PacketSize=512 run produced no continuations — annex batching is not engaging")
	}
	if conts512 <= conts4096 {
		t.Errorf("continuations not monotone in aggregate: 512→%d, 4096→%d", conts512, conts4096)
	}
}

type rsp512Row struct {
	Figure        string  `json:"figure"`
	Transactions  uint64  `json:"transactions"`
	Continuations uint64  `json:"continuations"`
	Bytes         uint64  `json:"bytes_read"`
	KGDBMs        float64 `json:"kgdb_ms"`
}

// rsp512Ledger is the rsp512 section: the slow-link cold cost of every
// figure, a serial KGDB stub at PacketSize 512, each figure behind a fresh
// snapshot. The modeled cost has no wall-clock part, so a change that adds
// link transactions, continuations or bytes to any figure shows here.
func rsp512Ledger(t *testing.T) any {
	run := runMatrix(t, 512)
	figs := vclstdlib.Figures()
	rows := make([]rsp512Row, len(figs))
	for i, fig := range figs {
		r := run[fig.ID]
		rows[i] = rsp512Row{fig.ID, r.txns, r.conts, r.bytes, r.msOp}
	}
	return rows
}
