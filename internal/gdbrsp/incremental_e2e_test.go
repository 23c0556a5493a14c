package gdbrsp_test

import (
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/gdbrsp"
	"visualinux/internal/render"
	"visualinux/internal/vclstdlib"
)

// The full incremental pipeline over a real RSP loopback socket: repeated
// stop→mutate→resume cycles must produce VPlots byte-identical to a cold
// in-process extractor at every round — with the dirty-ranges annex doing
// the revalidation, and again with the annex disabled so the client falls
// back to memory-hash revalidation.
func TestIncrementalOverWire(t *testing.T) {
	figIDs := []string{"3-4", "3-6", "7-1", "workqueue"}
	for _, tc := range []struct {
		name string
		opts []gdbrsp.ServerOption
	}{
		{"dirty-annex", nil},
		{"hash-fallback", []gdbrsp.ServerOption{gdbrsp.WithoutDirtyAnnex()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, c := dialKernelOpts(t, tc.opts...)
			var figs []vclstdlib.Figure
			for _, id := range figIDs {
				fig, ok := vclstdlib.FigureByID(id)
				if !ok {
					t.Fatalf("unknown figure %s", id)
				}
				figs = append(figs, fig)
			}
			x := core.NewIncrementalExtractor(k, c, figs, nil)
			if _, err := x.Round(); err != nil {
				t.Fatalf("cold round: %v", err)
			}

			mutate := []func() error{
				func() error { return k.PipeWrite(k.DirtyPipe, 64) },
				func() error { _, err := k.SpawnTask(9100, "wiretest", 1); return err },
				nil, // quiet round
			}
			lastGen := x.Snapshot().Generation()
			for round, m := range mutate {
				if m != nil {
					if err := m(); err != nil {
						t.Fatalf("round %d mutation: %v", round, err)
					}
				}
				x.Advance()
				if g := x.Snapshot().Generation(); g <= lastGen {
					t.Fatalf("round %d: generation not monotone", round)
				} else {
					lastGen = g
				}
				out, err := x.Round()
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				for i, rr := range out {
					cold := core.NewSession(k.Target(), nil)
					p, err := cold.VPlotFigure(figs[i].ID)
					if err != nil {
						t.Fatalf("round %d cold %s: %v", round, figs[i].ID, err)
					}
					if render.Text(rr.Res.Graph) != render.Text(p.Graph) {
						t.Errorf("round %d: figure %s over the wire diverged from cold extraction",
							round, figs[i].ID)
					}
				}
				if m == nil {
					for i, rr := range out {
						if !rr.Reused {
							t.Errorf("quiet round re-extracted %s", figs[i].ID)
						}
					}
				}
			}
			if tc.name == "hash-fallback" && c.Stats().HashChecks.Load() == 0 {
				t.Error("hash-fallback run issued no hash round trips")
			}
		})
	}
}
