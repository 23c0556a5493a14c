package perf

import (
	"fmt"
	"time"

	"visualinux/internal/core"
	"visualinux/internal/gdbrsp"
	"visualinux/internal/kernelsim"
	"visualinux/internal/vclstdlib"
)

// RSPSession bundles a served simulated kernel with a dialed RSP client,
// giving a third Table 4 personality: "GDB (RSP/localhost)" — real socket
// round trips per memory read, sitting between the in-process fast target
// and the modeled KGDB serial link.
type RSPSession struct {
	Server *gdbrsp.Server
	Client *gdbrsp.Client
}

// NewRSPSession serves k over a loopback RSP socket and dials it. Server
// options model stub constraints — WithPacketSize(512) is a serial KGDB
// stub, the default is QEMU-like.
func NewRSPSession(k *kernelsim.Kernel, opts ...gdbrsp.ServerOption) (*RSPSession, error) {
	srv, err := gdbrsp.Serve("127.0.0.1:0", k.Target(), opts...)
	if err != nil {
		return nil, err
	}
	client, err := gdbrsp.Dial(srv.Addr(), k.Reg, k.Target().Symbols())
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &RSPSession{Server: srv, Client: client}, nil
}

// Close tears the session down.
func (r *RSPSession) Close() {
	r.Client.Close()
	r.Server.Close()
}

// MeasureFigureRSP extracts one figure through the RSP wire.
func (r *RSPSession) MeasureFigureRSP(fig vclstdlib.Figure) (Row, error) {
	s := core.NewSession(r.Client, nil)
	reads0, bytes0, txns0 := r.Client.Stats().Totals()
	t0 := time.Now()
	p, err := s.VPlot(fig.ID, fig.Program)
	if err != nil {
		return Row{}, err
	}
	wall := time.Since(t0)
	reads1, bytes1, txns1 := r.Client.Stats().Totals()
	return makeRow(fig.ID, p.Graph.Stats.Objects, reads1-reads0, txns1-txns0, bytes1-bytes0, wall, 0), nil
}

// Table4RSP measures every figure over the RSP wire.
func Table4RSP(opts kernelsim.Options) ([]Row, error) {
	k := kernelsim.Build(opts)
	sess, err := NewRSPSession(k)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	var out []Row
	for _, fig := range vclstdlib.Figures() {
		row, err := sess.MeasureFigureRSP(fig)
		if err != nil {
			return nil, fmt.Errorf("figure %s (rsp): %w", fig.ID, err)
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatRows renders plain rows (for the RSP column).
func FormatRows(title string, rows []Row) string {
	out := title + "\n"
	out += fmt.Sprintf("%-12s | %10s %8s %8s | %6s %7s\n", "figure", "total(ms)", "/obj", "/KB", "objs", "KB")
	for _, r := range rows {
		out += fmt.Sprintf("%-12s | %10.2f %8.3f %8.3f | %6d %7.1f\n",
			r.FigureID, r.TotalMS, r.PerObjMS, r.PerKBMS, r.Objects, r.KBytes)
	}
	return out
}
