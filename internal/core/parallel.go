package core

import (
	"errors"
	"fmt"

	"visualinux/internal/kernelsim"
	"visualinux/internal/panes"
	"visualinux/internal/target"
	"visualinux/internal/vclstdlib"
)

// ExtractFigures plots the given figures concurrently over one stopped
// kernel image, keeping at most workers figures in flight (workers <= 0
// means no per-call cap). The figures run on the process-wide DefaultPool
// under a per-call key, so concurrent extractions — one per session —
// share the pool's fixed worker population round-robin instead of each
// spawning its own GOMAXPROCS goroutines. Each figure runs its own Session
// with an isolated stats view of the shared target, so per-figure
// Graph.Stats stay accurate while the underlying read-only memory is
// shared freely.
//
// Results keep the order of figs. A failing figure aborts nothing else:
// every figure is still attempted, the panes that extracted are returned
// (failed slots stay nil), and the failures come back joined in err. Callers
// wanting all-or-nothing check err; callers serving a workspace keep the
// good panes and report the bad. A figure whose extraction panicked leaves
// its slot nil and adds the recovered *TaskPanic to err.
func ExtractFigures(k *kernelsim.Kernel, figs []vclstdlib.Figure, workers int) ([]*panes.Pane, error) {
	out := make([]*panes.Pane, len(figs))
	errs := make([]error, len(figs))
	perr := DefaultPool().Run(fmt.Sprintf("extract:%p", k), len(figs), workers, func(i int) {
		fig := figs[i]
		s := SessionOver(k, target.WithStats(k.Target()))
		p, err := s.VPlot(fig.ID, fig.Program)
		if err != nil {
			errs[i] = fmt.Errorf("figure %s: %w", fig.ID, err)
			return
		}
		out[i] = p
	})
	return out, errors.Join(append(errs, perr)...)
}
