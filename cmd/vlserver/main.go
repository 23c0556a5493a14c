// Command vlserver runs the Visualinux visualizer front-end as an HTTP
// service over a simulated kernel or a core dump: POST v-commands, GET
// pane state, a minimal embedded browser UI at /, and observability
// surfaces under /debug/ (Prometheus metrics, per-pane extraction traces,
// slow log).
//
// The process is multi-tenant. At startup it admits one managed session
// named "default" (core.DefaultSession) — a live simulated kernel, or the
// -core dump — which the legacy un-prefixed routes serve and which is also
// addressable under /sessions/default/. Clients create further sessions
// with POST /sessions and address each under /sessions/{id}/... with the
// full surface re-rooted per session. Admission control is operator-tuned:
// -max-sessions caps the fleet, -session-mem rejects oversized kernels,
// -mem-budget LRU-evicts to fit a total footprint, and -idle-ttl reaps
// sessions nobody touches (a background sweeper runs at ttl/4). The
// default session counts toward every budget but is never evicted. Fleet
// health is at /debug/sessions.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"visualinux/internal/core"
	"visualinux/internal/obs"
	"visualinux/internal/server"
)

// config is the parsed command line.
type config struct {
	procs                       int
	figure, workspace, baseline string
	coreFile                    string
	metricsEvery, runEvery      time.Duration
	maxSessions                 int
	sessionMem, memBudget       int64
	idleTTL                     time.Duration
}

func main() {
	var c config
	addr := flag.String("addr", "127.0.0.1:8873", "listen address")
	flag.IntVar(&c.procs, "procs", 0, "workload processes (0 = default of 5)")
	flag.StringVar(&c.figure, "figure", "7-1", "figure to plot at startup ('' for none)")
	flag.StringVar(&c.workspace, "workspace", "", "comma-separated figure IDs (or 'all') to extract at startup instead of -figure, each with its own trace")
	flag.DurationVar(&c.metricsEvery, "metrics-interval", 0, "periodically snapshot the metrics registry into the /debug/metrics/history ring (0 disables)")
	flag.StringVar(&c.baseline, "baseline", "", "ledger document (LEDGER.json) whose steady section's steady_kgdb_ms rows become the /debug/diagnose baseline")
	flag.DurationVar(&c.runEvery, "run-interval", 0, "free-run the simulated kernel: every interval, apply one mutation workload step, take a stop event, re-extract incrementally, and push pane deltas to /stream clients (0 disables)")
	flag.IntVar(&c.maxSessions, "max-sessions", 0, "managed-session admission cap, the default session included (0 = default of 256)")
	flag.Int64Var(&c.sessionMem, "session-mem", 0, "per-session simulated-kernel footprint cap in bytes; larger creates are rejected (0 = unbounded)")
	flag.Int64Var(&c.memBudget, "mem-budget", 0, "total simulated-kernel bytes across managed sessions; LRU sessions other than the default are evicted to fit (0 = unbounded)")
	flag.DurationVar(&c.idleTTL, "idle-ttl", 0, "evict managed sessions other than the default idle this long; a background sweeper runs at ttl/4 (0 = never)")
	flag.StringVar(&c.coreFile, "core", "", "attach post-mortem: the default session serves a VLCORE01 core dump instead of a live simulated kernel (read-only; rounds are rejected)")
	flag.Parse()

	a, err := start(c)
	if err != nil {
		log.Fatalf("vlserver: %v", err)
	}
	a.banner(os.Stdout, *addr)
	log.Fatal(http.ListenAndServe(*addr, a.srv))
}

// app is a started vlserver: the server over its manager and default
// session, plus the background loops stop ends.
type app struct {
	srv      *server.Server
	mgr      *core.SessionManager
	deflt    *core.ManagedSession
	runEvery time.Duration
	stops    []func()
}

// start builds the process from c: a session manager over the process
// observer, the default session admitted through it like any tenant, the
// server, and the background loops (metrics history, idle sweeper, and
// the -run-interval stop events).
func start(c config) (*app, error) {
	opts, err := c.defaultSession()
	if err != nil {
		return nil, err
	}
	o := obs.NewObserver()
	mgr := core.NewSessionManager(core.ManagerOptions{
		MaxSessions:   c.maxSessions,
		SessionBudget: clampBytes(c.sessionMem),
		MemBudget:     clampBytes(c.memBudget),
		IdleTTL:       c.idleTTL,
	}, o)
	ms, err := mgr.Create(core.DefaultSession, opts)
	if ms == nil {
		return nil, fmt.Errorf("default session: %w", err)
	}
	if err != nil {
		// One bad figure must not take the session down: the good panes
		// are attached — serve them, report the rest.
		log.Printf("vlserver: startup extraction: %v", err)
	}
	if c.baseline != "" {
		if err := ms.Session.LoadBaselineFile(c.baseline); err != nil {
			return nil, err
		}
	}
	a := &app{srv: server.NewManaged(mgr, ms), mgr: mgr, deflt: ms, runEvery: c.runEvery}
	if c.metricsEvery > 0 {
		a.stops = append(a.stops, o.StartMetricsHistory(c.metricsEvery))
	}
	if c.idleTTL > 0 {
		a.stops = append(a.stops, every(max(c.idleTTL/4, time.Second), func() {
			if ids := mgr.SweepIdle(); len(ids) > 0 {
				log.Printf("vlserver: evicted %d idle session(s): %s", len(ids), strings.Join(ids, ", "))
			}
		}))
	}
	if c.runEvery > 0 {
		a.stops = append(a.stops, every(c.runEvery, func() {
			if err := a.srv.StreamRound(core.DefaultSession); err != nil {
				log.Printf("vlserver: stop-event round: %v", err)
			}
		}))
	}
	return a, nil
}

// defaultSession maps the command line onto the default session's
// admission options.
func (c config) defaultSession() (core.SessionOptions, error) {
	opts := core.SessionOptions{Source: core.SourceSim}
	opts.Kernel.Processes = c.procs
	switch {
	case c.workspace == "all":
		// nil Figures: every stdlib figure.
	case c.workspace != "":
		for _, id := range strings.Split(c.workspace, ",") {
			if id = strings.TrimSpace(id); id != "" {
				opts.Figures = append(opts.Figures, id)
			}
		}
		if len(opts.Figures) == 0 {
			return opts, errors.New("empty -workspace")
		}
	case c.figure != "":
		opts.Figures = []string{c.figure}
	default:
		opts.Figures = []string{} // -figure '': start empty
	}
	if c.coreFile != "" {
		if c.runEvery > 0 {
			return opts, errors.New("-run-interval needs a live kernel; a -core session is read-only")
		}
		img, err := os.ReadFile(c.coreFile)
		if err != nil {
			return opts, fmt.Errorf("-core: %w", err)
		}
		opts.Source = core.SourceCore
		opts.CoreImage = img
	}
	return opts, nil
}

// every runs fn every d on its own goroutine until the returned stop is
// called; stop returns once the goroutine has exited.
func every(d time.Duration, fn func()) (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(d)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				fn()
			case <-done:
				return
			}
		}
	}()
	return func() { close(done); <-exited }
}

// stop ends the background loops.
func (a *app) stop() {
	for _, stop := range a.stops {
		stop()
	}
}

// banner describes the started process on w.
func (a *app) banner(w io.Writer, addr string) {
	ms := a.deflt
	_, bytes := ms.Mem.Footprint()
	panes := 0
	if ms.Session.Tree != nil {
		panes = len(ms.Session.Tree.Panes())
	}
	switch {
	case ms.Kernel == nil:
		fmt.Fprintf(w, "vlserver: post-mortem default session (%d KiB image, %d panes); read-only: POST /sessions/default/round answers 422\n", bytes/1024, panes)
	case a.runEvery > 0:
		fmt.Fprintf(w, "vlserver: simulated kernel free-running (%d tasks, %d KiB, %d panes, stop event every %v); live pane deltas at /stream (SSE), stream health at /debug/stream\n",
			len(ms.Kernel.Tasks), bytes/1024, panes, a.runEvery)
	default:
		fmt.Fprintf(w, "vlserver: simulated kernel ready (%d tasks, %d KiB, %d panes)\n", len(ms.Kernel.Tasks), bytes/1024, panes)
	}
	fmt.Fprintf(w, "vlserver: metrics at /debug/metrics (+/history), traces at /debug/trace/{pane|last}, slow log at /debug/slowlog, diagnosis at /debug/diagnose/{pane|slowest}\n")
	fmt.Fprintf(w, "vlserver: session fabric: the default session at / and /sessions/default/, POST /sessions admits tenants (each at /sessions/{id}/...), fleet queries at /fleet/query, fleet health at /debug/sessions\n")
	fmt.Fprintf(w, "vlserver: listening on http://%s\n", addr)
}

// clampBytes converts a byte-count flag to the manager's unsigned budget,
// treating negatives as "unbounded" rather than wrapping.
func clampBytes(n int64) uint64 {
	if n <= 0 {
		return 0
	}
	return uint64(n)
}
