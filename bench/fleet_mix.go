package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
)

// fleet_mix is many tenants on one server under an open loop. No traffic
// trace of this system exists, so the shape is assembled from parts the
// repository already defines instead of from chosen ratios:
//
//   - The fleet is the one of the fleet-query experiment (internal/perf
//     MeasureFleet, BENCH_10): 14 live kernels of 2 processes cycling over
//     the runqueue-skew, zombie and pipe-burst variants, and 2 core dumps,
//     every tenant carrying figure 7-1.
//   - Every tenant runs step_look's stop → look loop on its one pane. A
//     unit is one visit: POST /round, GET /api/panes and a conditional GET
//     of the pane; a core-dump tenant cannot step, so its visit only looks.
//   - A sweep visits every tenant once, in seeded order, and asks one fleet
//     query over all of them at a seeded point; the query is a unit too.
//   - A live tenant is replaced by a fresh admission after stepLookEpisode
//     rounds, for the reason step_look replaces its session.
//
// The offered rate is measured, not chosen: units arrive as a Poisson
// stream whose rate keeps the two connections busy half the time at the
// running mean service time. A slower server is offered less, so its
// latency grows in proportion rather than with a queue that a fixed rate
// would build, and ops_per_s, the rate completed, measures its speed.
// Each unit is timed from its due time.

const (
	fleetWorkers = 2 // client goroutines, one connection each
	fleetFigure  = "7-1"
	// offeredShare is the share of the time the connections are offered
	// work: the arrival rate is offeredShare × fleetWorkers / the mean
	// service time of a unit.
	offeredShare = 0.5
	// serviceWindow is the number of units the running mean service time
	// mostly reflects, a fraction of a second of them.
	serviceWindow = 500
	// seedTime is the closed loop that measures a first service time.
	seedTime = 200 * time.Millisecond
	// lateLimit is the pacer lateness above which a send counts as late;
	// a run whose median lateness exceeds it measured its own generator.
	lateLimit = 100 * time.Microsecond
	// minDelivered is the share of the arrivals due in a phase that must
	// be answered by its end.
	minDelivered = 0.98
)

// fleetLive are the admission bodies of MeasureFleet's live members; live
// tenant i gets fleetLive[i%3].
var fleetLive = []map[string]any{
	{"procs": 2, "runqueue_skew": 2},
	{"procs": 2, "zombie_tasks": 2},
	{"procs": 2, "pipe_burst": 3},
}

const (
	fleetLiveTenants = 14
	fleetCoreTenants = 2
)

// fleetTenant is one member. Requests hold mu for reading while they are
// sent; a replacement holds it for writing, so no request meets a tenant
// between its deletion and its re-admission.
type fleetTenant struct {
	id     string
	spec   map[string]any // admission body; nil for a core dump
	mu     sync.RWMutex
	rounds int // rounds generated toward the tenant's replacement
}

type fleetMix struct {
	st      *stack
	clients [fleetWorkers]*client
	tenants []*fleetTenant
	ids     []string // every member, the span of each fleet query
	load    float64  // share of the time the connections are offered work

	mu       sync.Mutex // guards everything below
	rng      *rand.Rand
	sweep    []fleetUnit // units of the current sweep not yet taken
	service  float64     // running mean service time of a unit, in seconds
	due      time.Time   // due time of the last arrival generated
	deadline time.Time   // end of the current open-loop phase
	offered  int64       // arrivals due before the deadline
	answered int64       // of those, sent and answered
	etags    map[fleetPane]string
	condGets int64
	notMod   int64
	bytes    int64
}

type fleetPane struct {
	tenant int
	format string
}

// fleetUnit is one generated unit: a tenant's visit, or a fleet query.
type fleetUnit struct {
	due time.Time
	// visit: step is "round", "replace" or, for a core dump, ""; the look
	// reads the pane in format.
	tenant int
	step   string
	format string
	query  string // a fleet query's program; "" for a visit
}

func setupFleetMix(e *env) (instance, error) {
	st, err := startStack(e.tc, 2*(fleetLiveTenants+fleetCoreTenants))
	if err != nil {
		return nil, err
	}
	w := &fleetMix{st: st, load: offeredShare, rng: newRand(e.seed, "fleet_mix"), etags: make(map[fleetPane]string)}
	for i := range w.clients {
		w.clients[i] = newClient(st.base, e.tc)
	}
	for i := 0; i < fleetLiveTenants; i++ {
		spec := map[string]any{"figures": []string{fleetFigure}}
		for k, v := range fleetLive[i%len(fleetLive)] {
			spec[k] = v
		}
		// Every live tenant steps once per sweep, so they would all be
		// replaced in the same sweep and the fleet's size would rise and
		// fall in step. Staggered starts keep its size about constant.
		w.tenants = append(w.tenants, &fleetTenant{id: fmt.Sprintf("live%02d", i), spec: spec,
			rounds: i * stepLookEpisode / fleetLiveTenants})
	}
	for i := 0; i < fleetCoreTenants; i++ {
		w.tenants = append(w.tenants, &fleetTenant{id: fmt.Sprintf("dead%02d", i)})
	}
	c := w.clients[0]
	for i, t := range w.tenants {
		spec := t.spec
		if spec == nil {
			spec = map[string]any{"core": corePath(e, fleetCoreName(i-fleetLiveTenants)), "figures": []string{fleetFigure}}
		}
		if err := w.admit(nil, c, t.id, spec); err != nil {
			w.close()
			return nil, err
		}
		w.ids = append(w.ids, t.id)
	}
	return w, nil
}

func fleetCoreName(i int) string { return fmt.Sprintf("fleet%d", i) }

// prepareFleetMix dumps MeasureFleet's two core-dump members.
func prepareFleetMix(e *env) error {
	for i := 0; i < fleetCoreTenants; i++ {
		opts := kernelsim.Options{Processes: 2 + i, ThreadsPerProc: 1, VMAsPerProcess: 2, PagesPerFile: 2}
		if err := writeCore(corePath(e, fleetCoreName(i)), opts); err != nil {
			return err
		}
	}
	return nil
}

// admit creates a tenant and checks that it serves one pane of figure 7-1.
func (w *fleetMix) admit(sp *obs.Span, c *client, id string, spec map[string]any) error {
	body := map[string]any{"id": id}
	for k, v := range spec {
		body[k] = v
	}
	if _, err := c.postJSON(sp, http.StatusCreated, "/sessions", body); err != nil {
		return err
	}
	return w.list(sp, c, id)
}

// next takes the next unit of the stream, starting a new sweep when
// the current one is used up. In the open loop it also draws the
// unit's arrival time.
func (w *fleetMix) next(open bool) fleetUnit {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.sweep) == 0 {
		w.newSweep()
	}
	r := w.sweep[0]
	w.sweep = w.sweep[1:]
	if open {
		r.due = w.arrive()
	}
	return r
}

// arrive draws the next arrival time and counts it as offered when it
// falls before the deadline. Arrivals are Poisson at the rate that keeps
// the connections busy w.load of the time at the current mean service
// time. w.mu must be held.
func (w *fleetMix) arrive() time.Time {
	rate := w.load * fleetWorkers / w.service
	w.due = w.due.Add(time.Duration(w.rng.ExpFloat64() / rate * float64(time.Second)))
	if w.due.Before(w.deadline) {
		w.offered++
	}
	return w.due
}

// putBack returns a unit not sent to the front of the stream, so that
// the next phase sends it and every tenant's round count stays exact.
func (w *fleetMix) putBack(r fleetUnit) {
	w.mu.Lock()
	w.sweep = append([]fleetUnit{r}, w.sweep...)
	w.mu.Unlock()
}

// newSweep lays out one visit per tenant in seeded order, with the fleet
// query at a seeded position between visits.
func (w *fleetMix) newSweep() {
	at := w.rng.IntN(len(w.tenants) + 1)
	for n, i := range w.rng.Perm(len(w.tenants)) {
		if n == at {
			w.sweep = append(w.sweep, fleetUnit{query: fleetProgram(w.rng)})
		}
		v := fleetUnit{tenant: i, format: [...]string{"json", "text"}[w.rng.IntN(2)]}
		if t := w.tenants[i]; t.spec != nil {
			v.step = "round"
			if t.rounds == stepLookEpisode {
				v.step, t.rounds = "replace", 0
			} else {
				t.rounds++
			}
		}
		w.sweep = append(w.sweep, v)
	}
	if at == len(w.tenants) {
		w.sweep = append(w.sweep, fleetUnit{query: fleetProgram(w.rng)})
	}
}

// fleetProgram is a seeded read-only ViewQL program over figure 7-1, from
// the family of MeasureFleet's "SELECT task_struct ... WHERE pid > 0".
func fleetProgram(rng *rand.Rand) string {
	switch rng.IntN(4) {
	case 0:
		return fmt.Sprintf("q = SELECT task_struct FROM * WHERE pid >= %d", rng.IntN(120))
	case 1:
		return fmt.Sprintf("q = SELECT task_struct FROM * WHERE pid < %d", 1+rng.IntN(120))
	case 2:
		return "q = SELECT rq FROM *"
	default:
		lo := rng.IntN(100)
		return fmt.Sprintf("a = SELECT task_struct FROM * WHERE pid >= %d\nq = SELECT task_struct FROM a WHERE pid < %d", lo, lo+1+rng.IntN(40))
	}
}

// drive offers units open loop until the deadline. The first drive of an
// instance starts with a short closed loop to measure a first service time.
func (w *fleetMix) drive(deadline time.Time, rec *recorder) {
	if w.service == 0 {
		w.loop(time.Now().Add(seedTime), rec, w.closedWorker)
	}
	w.mu.Lock()
	w.due = time.Now()
	w.deadline = deadline
	w.offered, w.answered = 0, 0
	w.mu.Unlock()
	w.loop(deadline, rec, w.openWorker)
	// Arrivals still queued at the deadline were offered but never sent.
	w.mu.Lock()
	for w.due.Before(deadline) {
		w.arrive()
	}
	w.mu.Unlock()
}

func (w *fleetMix) loop(deadline time.Time, rec *recorder, worker func(*client, time.Time, *recorder, *obs.Tracer)) {
	var wg sync.WaitGroup
	for i, c := range w.clients {
		wg.Add(1)
		tr := rec.track(fmt.Sprintf("worker%d", i))
		go func() {
			defer wg.Done()
			worker(c, deadline, rec, tr)
		}()
	}
	wg.Wait()
}

// closedWorker sends the stream back to back until the deadline.
func (w *fleetMix) closedWorker(c *client, deadline time.Time, rec *recorder, tr *obs.Tracer) {
	for time.Now().Before(deadline) {
		r := w.next(false)
		t0 := time.Now()
		timeUnit(tr, rec, func(sp *obs.Span) error { return w.send(c, sp, r, rec) })
		w.served(time.Since(t0))
	}
}

// served folds one unit's service time, from sending to the last answer,
// into the running mean that sets the offered rate.
func (w *fleetMix) served(d time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.service == 0 {
		w.service = d.Seconds()
	}
	w.service += (d.Seconds() - w.service) / serviceWindow
}

// openWorker takes the next arrival, waits for its due time and sends it.
// A unit's latency runs from its due time, so a stall also charges the
// units queued behind it. Arrivals not sent by the deadline stay
// unanswered and count against the run's validity.
func (w *fleetMix) openWorker(c *client, deadline time.Time, rec *recorder, tr *obs.Tracer) {
	p, err := newPacer()
	if err != nil {
		rec.done(0, err)
		return
	}
	defer p.close()
	for {
		r := w.next(true)
		picked := time.Now()
		if !r.due.Before(deadline) || !picked.Before(deadline) {
			w.putBack(r)
			return
		}
		if err := p.wait(r.due); err != nil {
			rec.done(0, err)
			return
		}
		sent := time.Now()
		start := r.due
		if picked.After(start) {
			start = picked // the worker was busy: not the pacer's lateness
		}
		rec.sample("late", sent.Sub(start))
		sp := tr.Root().StartChild("unit")
		err := w.send(c, sp, r, rec)
		sp.End()
		w.served(time.Since(sent))
		rec.tc.charge(clkUnit, time.Since(sent))
		rec.done(time.Since(r.due), err)
		w.mu.Lock()
		w.answered++
		w.mu.Unlock()
	}
}

// send runs one unit and checks every answer, recording the latency of
// each request from sending under its kind.
func (w *fleetMix) send(c *client, sp *obs.Span, r fleetUnit, rec *recorder) error {
	timed := func(kind string, req func() error) error {
		t0 := time.Now()
		err := req()
		if err == nil {
			rec.sample(kind, time.Since(t0))
		}
		return err
	}
	if r.query != "" {
		for _, t := range w.tenants {
			t.mu.RLock()
			defer t.mu.RUnlock()
		}
		return timed("query", func() error { return w.query(c, sp, r.query) })
	}
	t := w.tenants[r.tenant]
	if r.step == "replace" {
		t.mu.Lock()
		defer t.mu.Unlock()
	} else {
		t.mu.RLock()
		defer t.mu.RUnlock()
	}
	path := "/sessions/" + t.id
	var err error
	switch r.step {
	case "round":
		err = timed("round", func() error {
			rep, err := c.expect(sp, http.StatusOK, http.MethodPost, path+"/round", nil)
			if err == nil && !bytes.Contains(rep.body, []byte(`"stepped"`)) {
				err = mismatch("round answered %s", rep.body)
			}
			return err
		})
	case "replace":
		err = timed("replace", func() error {
			if _, err := c.expect(sp, http.StatusOK, http.MethodDelete, path, nil); err != nil {
				return err
			}
			w.mu.Lock()
			for _, f := range [...]string{"json", "text"} {
				delete(w.etags, fleetPane{r.tenant, f})
			}
			w.mu.Unlock()
			return w.admit(sp, c, t.id, t.spec)
		})
	}
	if err == nil {
		err = timed("list", func() error { return w.list(sp, c, t.id) })
	}
	if err == nil {
		err = timed("read", func() error { return w.read(c, sp, r, t.id) })
	}
	return err
}

// list checks that a tenant lists exactly one pane, with boxes.
func (w *fleetMix) list(sp *obs.Span, c *client, id string) error {
	listing, err := c.panes(sp, id)
	if err != nil {
		return err
	}
	if len(listing) != 1 || listing[0].Boxes == 0 {
		return mismatch("session %s lists %v, want one pane of figure %s", id, listing, fleetFigure)
	}
	return nil
}

// read revalidates a tenant's pane: a 304 must answer only a conditional
// GET, and a 200 must carry a validator and a well-formed pane.
func (w *fleetMix) read(c *client, sp *obs.Span, r fleetUnit, id string) error {
	key := fleetPane{r.tenant, r.format}
	w.mu.Lock()
	inm := w.etags[key]
	w.mu.Unlock()
	path := fmt.Sprintf("/sessions/%s/api/pane?id=1&format=%s", id, r.format)
	rep, err := c.do(sp, http.MethodGet, path, nil, inm)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if inm != "" {
		w.condGets++
	}
	w.bytes += int64(len(rep.body))
	switch rep.code {
	case http.StatusNotModified:
		if inm == "" {
			return mismatch("304 for an unconditional GET %s", path)
		}
		w.notMod++
		return nil
	case http.StatusOK:
		if rep.etag == "" {
			return mismatch("GET %s: no validator", path)
		}
		if r.format == "json" {
			var pj paneJSON
			if err := json.Unmarshal(rep.body, &pj); err != nil || len(pj.Boxes) == 0 {
				return mismatch("GET %s: malformed pane (%d bytes, %v)", path, len(rep.body), err)
			}
		} else if len(bytes.TrimSpace(rep.body)) == 0 {
			return mismatch("GET %s: empty text pane", path)
		}
		w.etags[key] = rep.etag
		return nil
	}
	return fmt.Errorf("GET %s: status %d: %s", path, rep.code, bytes.TrimSpace(rep.body))
}

// fleetAnswer is the part of a fleet query result the checks read.
type fleetAnswer struct {
	Targets []struct {
		Target string `json:"target"`
		Count  int    `json:"count"`
		Err    string `json:"error"`
	} `json:"targets"`
	Merged []struct {
		Target string `json:"target"`
	} `json:"merged"`
}

// query runs one fleet query and checks that every member answered and
// every merged ref names the member it came from.
func (w *fleetMix) query(c *client, sp *obs.Span, program string) error {
	rep, err := c.postJSON(sp, http.StatusOK, "/fleet/query", map[string]any{
		"figure": fleetFigure, "query": program, "sessions": w.ids,
	})
	if err != nil {
		return err
	}
	var ans fleetAnswer
	if err := json.Unmarshal(rep.body, &ans); err != nil {
		return mismatch("fleet answer: %v", err)
	}
	if len(ans.Targets) != len(w.ids) {
		return mismatch("fleet answered for %d of %d targets", len(ans.Targets), len(w.ids))
	}
	members := make(map[string]bool, len(ans.Targets))
	total := 0
	for _, t := range ans.Targets {
		if t.Err != "" {
			return mismatch("target %s unhealthy: %s", t.Target, t.Err)
		}
		members[t.Target] = true
		total += t.Count
	}
	if total != len(ans.Merged) {
		return mismatch("merged %d refs, targets counted %d", len(ans.Merged), total)
	}
	for _, m := range ans.Merged {
		if !members[m.Target] {
			return mismatch("merged ref without its target (%q)", m.Target)
		}
	}
	return nil
}

// validate rejects a run whose generator, not the server, set the pace:
// a median pacer lateness above lateLimit, or less than minDelivered of
// the arrivals due in the open-loop phase answered by its end.
func (w *fleetMix) validate(rec *recorder) error {
	rec.mu.Lock()
	lateP50 := percentile(rec.series["late"], 50)
	rec.mu.Unlock()
	w.mu.Lock()
	offered, answered := w.offered, w.answered
	w.mu.Unlock()
	if lateP50 > lateLimit {
		return fmt.Errorf("pacer lateness p50 %v exceeds %v", lateP50, lateLimit)
	}
	if float64(answered) < minDelivered*float64(offered) {
		return fmt.Errorf("answered %d of %d arrivals due (%.1f%%)", answered, offered, 100*float64(answered)/float64(offered))
	}
	return nil
}

func (w *fleetMix) counters(c counters) {
	w.st.sessionCounters(c, w.ids)
	w.st.roundCounters(c)
	w.mu.Lock()
	defer w.mu.Unlock()
	c["conditional_gets"] = float64(w.condGets)
	c["not_modified"] = float64(w.notMod)
	c["resp_bytes"] = float64(w.bytes)
}

func (w *fleetMix) close() {
	for _, c := range w.clients {
		if c != nil {
			c.close()
		}
	}
	w.st.close()
}
