package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"visualinux/internal/coredump"
	"visualinux/internal/ctypes"
	"visualinux/internal/kernelsim"
	"visualinux/internal/mem"
	"visualinux/internal/obs"
	"visualinux/internal/stream"
	"visualinux/internal/vclstdlib"
)

// SessionManager is the multi-tenant fabric from ROADMAP item 1: one
// process hosts many independent debugging sessions, keyed by client-chosen
// IDs, sharing every piece of immutable infrastructure (the ctypes
// registry, the parsed+compiled ViewCL stdlib, the global extraction pool)
// while keeping all mutable state — kernel image, snapshot, memo, pane
// tree, stream broker, serialization cache — strictly per session. It is
// the one registry of sessions: the serving layer resolves every request
// through Attach and keeps no per-session state of its own.
//
// Admission control is capacity-based: a configurable session-count cap, a
// per-session kernel footprint cap, and a total memory budget under which
// least-recently-used sessions are evicted to make room. Idle sessions are
// reaped by TTL, either on demand (every Create sweeps first) or from a
// caller's periodic SweepIdle. The session named DefaultSession is pinned:
// neither the idle sweep nor the memory LRU ever evicts it.
//
// Lock order: a session's lock before the manager's, never the reverse.
// Create holds the newcomer's write lock across admission; nothing that
// holds mu takes a session lock.
type SessionManager struct {
	opts ManagerOptions
	// obs is the serving process's observer, handed to DefaultSession.
	obs *obs.Observer

	// Tenants carries the fabric's metrics in the serving process's
	// registry (nil when the manager runs unobserved).
	Tenants *obs.TenantMetrics

	mu       sync.RWMutex
	sessions map[string]*ManagedSession
}

// ManagerOptions bounds the fabric.
type ManagerOptions struct {
	MaxSessions int // session-count admission cap (<= 0: DefaultMaxSessions)
	// MemBudget caps total *owned* bytes across resident sessions: private
	// (CoW-broken) pages in full, shared pages amortized over their holders.
	// With template admission a fleet of identical sessions therefore fits
	// in roughly one kernel image of budget, not N. 0 = unbounded
	// (LRU-evicts to fit).
	MemBudget     uint64
	SessionBudget uint64           // per-session kernel footprint cap; 0 = unbounded (rejects)
	IdleTTL       time.Duration    // evict sessions idle this long; 0 = never
	Now           func() time.Time // injectable clock for TTL tests; nil = time.Now
	// PrivateBuilds admits each session with its own privately built kernel
	// instead of forking the shared template image — the pre-CoW behavior,
	// kept as the byte-identity and budget reference in tests.
	PrivateBuilds bool
}

// DefaultMaxSessions is the default session-count admission cap.
const DefaultMaxSessions = 256

// DefaultSession names the operator's session: the one a serving process
// admits at startup and answers the un-prefixed routes with. The manager
// pins it by name (never idle- or LRU-evicted) and gives it the process
// observer, so its metrics share the registry with the fleet's.
const DefaultSession = "default"

// ManagedSession is one resident tenant: a full single-session pipeline
// (kernel, incremental extractor, workload), its serving state (the one
// lock, the stream broker, the serialization cache and publish state; see
// publish.go), and the bookkeeping the manager evicts and reports by.
type ManagedSession struct {
	// RWMutex is the session's one lock. Mutations (v-commands, imports,
	// stop events) take the write side; reads (panes, exports, stream
	// subscribe, diagnosis, fleet queries) take the read side and run
	// concurrently. Create holds the write side from admission until the
	// cold round's panes are published, so a reader that resolves a
	// session still being admitted waits for it instead of seeing it
	// half-built. Rounds run by the manager's own methods (Round,
	// StepRound) do not take it: their callers serialize.
	sync.RWMutex

	ID      string
	Session *Session
	// Source records the attach mode. Kernel and Workload are nil for
	// post-mortem (core dump) sessions: there is no simulator to step,
	// only a frozen image to extract from.
	Source    SourceKind
	Kernel    *kernelsim.Kernel
	Extractor *IncrementalExtractor
	Workload  *kernelsim.Workload
	// Mem is the session's memory image — the kernel's for live sessions,
	// the loaded dump's for core sessions. Budget accounting and release
	// go through it so both attach modes are charged the same way.
	Mem *mem.Memory
	// Obs is the session's own observer (registry, trace store): tenants
	// never share mutable observability state, only the bounded
	// session-labeled series the manager exports process-wide. The
	// DefaultSession's observer is the process observer itself.
	Obs     *obs.Observer
	Figures []vclstdlib.Figure
	// MemBytes is the kernel's mapped footprint (the address-space view,
	// fixed at admission). Budget accounting uses OwnedBytes instead, which
	// shrinks as pages are shared and grows as CoW breaks privatize them.
	MemBytes uint64
	Created  time.Time

	// Broker fans pane deltas out to the session's stream subscribers. It
	// is built at admission and closed when the session leaves the
	// manager, which disconnects every subscriber.
	Broker *stream.Broker
	// RenderStall, when set, is invoked at the top of every cache-miss
	// serialization. It is a test hook that lets a test park one reader
	// mid-render and prove others proceed; nil outside tests.
	RenderStall func(paneID int, format string)

	// cacheMu guards paneCache only. It is deliberately not held across
	// rendering: two readers racing to fill the same entry both render
	// and the last write wins, which costs one duplicate encode but keeps
	// slow renders from serializing unrelated readers.
	cacheMu sync.Mutex
	// paneCache keeps the last serialized body per pane+format, keyed by
	// the same version/epoch ETag served to clients: an unchanged pane is
	// neither re-rendered nor re-serialized. The stream fan-out
	// serializes through the same cache, so a GET and a pushed frame at
	// the same epoch share one encode.
	paneCache map[paneKey]*CachedPane
	// lastPub tracks the (version, epoch) each pane was last published at,
	// and round counts fan-out rounds. Both are guarded by the write lock.
	lastPub map[int]pubState
	round   uint64

	lastUsed atomic.Int64 // unix nanos
	rounds   atomic.Int64
	// panicked is set by the first round that panicked; the session
	// refuses every later round with it, since the panic may have left
	// the extractor half-updated.
	panicked atomic.Pointer[TaskPanic]
	mgr      *SessionManager
}

// SourceKind selects a session's attach mode at admission.
type SourceKind string

const (
	// SourceSim is the default: build (or template-fork) a live simulated
	// kernel and step it under the canned workload.
	SourceSim SourceKind = "sim"
	// SourceCore attaches post-mortem: load a VLCORE01 dump into a
	// read-only target. No workload, no rounds beyond the cold one.
	SourceCore SourceKind = "core"
)

// SessionOptions configures one tenant at admission.
type SessionOptions struct {
	// Source picks the attach mode; empty means SourceSim.
	Source SourceKind
	// Kernel configures the simulated kernel (SourceSim only).
	Kernel kernelsim.Options
	// CoreImage is the raw dump to load (SourceCore only).
	CoreImage []byte
	// Figures lists the stdlib figure IDs to extract: nil means every
	// figure, an empty non-nil list none (an import target starts empty).
	Figures []string
}

// Sentinel errors the REST layer maps to status codes.
var (
	ErrSessionExists   = errors.New("session already exists")
	ErrTooManySessions = errors.New("session limit reached")
	ErrMemBudget       = errors.New("memory budget exceeded")
	// ErrPostMortem rejects workload steps against a core-dump session:
	// the target is a frozen image, there is nothing to advance.
	ErrPostMortem = errors.New("post-mortem session has no workload")
)

// NewSessionManager creates the fabric. o is the serving process's observer
// for the session-labeled metrics (nil disables them) and DefaultSession's
// observer (nil gives it a fresh one).
func NewSessionManager(opts ManagerOptions, o *obs.Observer) *SessionManager {
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = DefaultMaxSessions
	}
	m := &SessionManager{opts: opts, obs: o, sessions: make(map[string]*ManagedSession)}
	if o != nil {
		m.Tenants = obs.NewTenantMetrics(o.Registry, 0)
		registerFleetMemMetrics(o, m)
	}
	return m
}

// registerFleetMemMetrics exports the CoW page-store and fleet-residency
// series: how many bytes the fleet really holds (unique), how many it would
// hold without sharing (mapped), and the dedup/CoW counters behind the
// difference.
func registerFleetMemMetrics(o *obs.Observer, m *SessionManager) {
	r := o.Registry
	stats := func() mem.StoreStats { return kernelsim.SharedStore().Stats() }
	r.GaugeFunc("vl_mem_store_unique_bytes", "distinct page bytes resident in the CoW store", func() float64 {
		return float64(stats().UniqueBytes)
	})
	r.GaugeFunc("vl_mem_store_shared_bytes", "page bytes mapped from the CoW store across all memories (sum of refcounts)", func() float64 {
		return float64(stats().SharedBytes)
	})
	r.GaugeFunc("vl_mem_store_dedup_hits_total", "page interns satisfied by an already-resident identical page", func() float64 {
		return float64(stats().DedupHits)
	})
	r.GaugeFunc("vl_mem_store_cow_breaks_total", "shared pages privatized by session writes", func() float64 {
		return float64(stats().CowBreaks)
	})
	r.GaugeFunc("vl_fleet_owned_bytes", "owned (unique-equivalent) bytes across resident sessions", func() float64 {
		return float64(m.TotalMem())
	})
}

func (m *SessionManager) now() time.Time {
	if m.opts.Now != nil {
		return m.opts.Now()
	}
	return time.Now()
}

// resolveFigures maps requested IDs to stdlib figures (all when nil).
func resolveFigures(ids []string) ([]vclstdlib.Figure, error) {
	if ids == nil {
		return vclstdlib.Figures(), nil
	}
	figs := make([]vclstdlib.Figure, 0, len(ids))
	for _, id := range ids {
		f, ok := vclstdlib.FigureByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown figure %q", id)
		}
		figs = append(figs, f)
	}
	return figs, nil
}

// Create admits a new session: builds its kernel, applies admission
// control, and runs the cold extraction round (through the global pool,
// under the session's fairness key) so the returned session is immediately
// servable. The session's write lock is held from before admission until
// the cold round's panes are recorded as published: a concurrent reader
// that finds the session in the registry waits for it. A non-nil error
// with a non-nil session means the session is resident but some figures
// failed to extract — the serving layer reports those as warnings.
func (m *SessionManager) Create(id string, opts SessionOptions) (*ManagedSession, error) {
	if id == "" {
		return nil, errors.New("empty session ID")
	}
	figs, err := resolveFigures(opts.Figures)
	if err != nil {
		return nil, err
	}

	// Image acquisition happens outside the manager lock. The live path
	// forks the shared template image for this config — microseconds, all
	// pages shared copy-on-write; only the first request for a config pays
	// a build (PrivateBuilds keeps the old build-per-session behavior).
	// The core path parses the dump into a fresh private image and binds
	// its symbols against a locally reconstructed type registry, like GDB
	// loading vmlinux for a vmcore. A racing Create of the same ID wastes
	// one fork/build/load and gets ErrSessionExists, which is the correct
	// answer.
	so := obs.NewObserver()
	if id == DefaultSession && m.obs != nil {
		so = m.obs
	}
	ms := &ManagedSession{
		ID: id, Obs: so, Figures: figs, Created: m.now(), mgr: m,
	}
	switch opts.Source {
	case "", SourceSim:
		ms.Source = SourceSim
		var k *kernelsim.Kernel
		if m.opts.PrivateBuilds {
			k = kernelsim.Build(opts.Kernel)
		} else {
			k = kernelsim.FromTemplate(opts.Kernel)
		}
		ms.Kernel = k
		ms.Mem = k.Mem
		ms.Extractor = NewIncrementalExtractor(k, k.Target(), figs, so)
		ms.Workload = kernelsim.NewWorkload(k)
	case SourceCore:
		reg := kernelsim.RegisterTypes(ctypes.NewRegistry())
		tgt, err := coredump.Load(bytes.NewReader(opts.CoreImage), reg)
		if err != nil {
			m.reject()
			return nil, err
		}
		ms.Source = SourceCore
		ms.Mem = tgt.Mem
		ms.Extractor = NewIncrementalExtractor(nil, tgt, figs, so)
	default:
		return nil, fmt.Errorf("unknown session source %q", opts.Source)
	}
	_, memBytes := ms.Mem.Footprint()
	if m.opts.SessionBudget > 0 && memBytes > m.opts.SessionBudget {
		m.reject()
		ms.Mem.Release()
		return nil, fmt.Errorf("%w: image footprint %d > per-session budget %d",
			ErrMemBudget, memBytes, m.opts.SessionBudget)
	}
	ms.MemBytes = memBytes
	ms.Session = ms.Extractor.Session
	ms.Broker = stream.NewBroker(so, 0)
	// The vchat diagnosis layer answers "why is my stream laggy?" from the
	// broker's health snapshot.
	ms.Session.StreamHealth = ms.Broker.Health
	ms.paneCache = make(map[paneKey]*CachedPane)
	ms.lastPub = make(map[int]pubState)
	ms.lastUsed.Store(ms.Created.UnixNano())

	ms.Lock()
	defer ms.Unlock()
	if err := m.admit(ms); err != nil {
		ms.Mem.Release()
		return nil, err
	}

	// Cold round: extract every figure once so panes exist before the first
	// client request. Runs on the pool so N concurrent creates share the
	// worker population fairly with already-running sessions. The startup
	// panes are then recorded as published: a first subscriber gets them in
	// its catch-up snapshot, not again after the first round.
	_, xerr := ms.Round()
	ms.PublishLocked(nil)
	return ms, xerr
}

// admit inserts ms under the capacity rules, evicting idle/LRU sessions as
// the rules allow. DefaultSession is the one newcomer admitted over the
// memory budget: it is the serving process's own session, and refusing it
// would refuse to start the process. Its bytes still count against every
// later admission.
func (m *SessionManager) admit(ms *ManagedSession) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.sessions[ms.ID]; ok {
		m.rejectLocked()
		return fmt.Errorf("%w: %q", ErrSessionExists, ms.ID)
	}
	m.sweepIdleLocked()
	// Memory pressure evicts least-recently-used tenants; the session cap
	// does not (every resident session is within TTL and budget — the
	// client asked for more concurrency than the operator provisioned).
	// Owned bytes are dynamic (evicting a sibling shifts its amortized
	// share onto the survivors), so the loop recomputes; it stops when
	// the newcomer fits or nothing evictable is left.
	if m.opts.MemBudget > 0 {
		for m.totalMemLocked()+ms.OwnedBytes() > m.opts.MemBudget && m.evictLRULocked() {
		}
		if total := m.totalMemLocked(); total+ms.OwnedBytes() > m.opts.MemBudget && ms.ID != DefaultSession {
			m.rejectLocked()
			return fmt.Errorf("%w: %d + %d owned > budget %d",
				ErrMemBudget, total, ms.OwnedBytes(), m.opts.MemBudget)
		}
	}
	if len(m.sessions) >= m.opts.MaxSessions {
		m.rejectLocked()
		return fmt.Errorf("%w: %d resident", ErrTooManySessions, len(m.sessions))
	}
	m.sessions[ms.ID] = ms
	if m.Tenants != nil {
		m.Tenants.Created.Inc()
		m.publishGaugesLocked()
	}
	return nil
}

// Attach resolves a live session and marks it used (the TTL clock resets).
func (m *SessionManager) Attach(id string) (*ManagedSession, bool) {
	ms, ok := m.Lookup(id)
	if ok {
		ms.Touch()
	}
	return ms, ok
}

// Lookup resolves a live session without marking it used, for surfaces
// that report on a session rather than serve it.
func (m *SessionManager) Lookup(id string) (*ManagedSession, bool) {
	m.mu.RLock()
	ms, ok := m.sessions[id]
	m.mu.RUnlock()
	return ms, ok
}

// Touch marks the session used now.
func (ms *ManagedSession) Touch() { ms.lastUsed.Store(ms.mgr.now().UnixNano()) }

// LastUsed reports when the session last served anything.
func (ms *ManagedSession) LastUsed() time.Time { return time.Unix(0, ms.lastUsed.Load()) }

// Rounds reports how many extraction rounds the session has run.
func (ms *ManagedSession) Rounds() int64 { return ms.rounds.Load() }

// Round drives one extraction round — cold the first time, delta after —
// scheduled on the global pool under the session's key, so a tenant
// free-running rounds shares workers fairly with every other tenant. The
// caller must serialize rounds per session (StopEvent does, under the
// session's write lock).
//
// A round that panics returns the recovered *TaskPanic, and so does every
// later round: the session is quarantined until it is deleted.
func (ms *ManagedSession) Round() ([]RoundResult, error) {
	if p := ms.panicked.Load(); p != nil {
		return nil, p
	}
	var out []RoundResult
	var err error
	perr := DefaultPool().Run(ms.Session.poolKey(), func() {
		t0 := time.Now()
		out, err = ms.Extractor.Round()
		if ms.mgr != nil && ms.mgr.Tenants != nil {
			ms.mgr.Tenants.ObserveRound(ms.ID, time.Since(t0))
		}
	})
	var p *TaskPanic
	if errors.As(perr, &p) {
		ms.panicked.Store(p)
		out, err = nil, p
	}
	ms.rounds.Add(1)
	ms.Touch()
	return out, err
}

// StepRound advances the session's canned workload one step, marks the
// stop boundary, and runs the delta round — the managed analogue of the
// single-session free-run loop. Post-mortem sessions refuse: a core image
// is frozen. A quarantined session refuses before stepping.
func (ms *ManagedSession) StepRound() ([]RoundResult, error) {
	if ms.Workload == nil {
		return nil, fmt.Errorf("%w: %q", ErrPostMortem, ms.ID)
	}
	if p := ms.panicked.Load(); p != nil {
		return nil, p
	}
	ms.Workload.Step()
	ms.Extractor.Advance()
	return ms.Round()
}

// Delete removes a session by request and reports whether it was resident.
func (m *SessionManager) Delete(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ms, ok := m.sessions[id]
	if !ok {
		return false
	}
	m.removeLocked(ms)
	if m.Tenants != nil {
		m.Tenants.Deleted.Inc()
		m.publishGaugesLocked()
	}
	return true
}

// SweepIdle evicts every session idle past the TTL and returns their IDs.
// Serving processes call it periodically; Create sweeps implicitly.
func (m *SessionManager) SweepIdle() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := m.sweepIdleLocked()
	if len(ids) > 0 && m.Tenants != nil {
		m.publishGaugesLocked()
	}
	return ids
}

func (m *SessionManager) sweepIdleLocked() []string {
	if m.opts.IdleTTL <= 0 {
		return nil
	}
	cutoff := m.now().Add(-m.opts.IdleTTL).UnixNano()
	var ids []string
	for id, ms := range m.sessions {
		if id != DefaultSession && ms.lastUsed.Load() < cutoff {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		m.evictLocked(m.sessions[id])
	}
	return ids
}

// evictLRULocked evicts the least-recently-used session other than
// DefaultSession and reports whether there was one.
func (m *SessionManager) evictLRULocked() bool {
	var lru *ManagedSession
	for id, ms := range m.sessions {
		if id != DefaultSession && (lru == nil || ms.lastUsed.Load() < lru.lastUsed.Load()) {
			lru = ms
		}
	}
	if lru == nil {
		return false
	}
	m.evictLocked(lru)
	return true
}

func (m *SessionManager) evictLocked(ms *ManagedSession) {
	m.removeLocked(ms)
	if m.Tenants != nil {
		m.Tenants.Evicted.Inc()
	}
}

// removeLocked takes ms out of the registry, on eviction and on delete,
// and tears its serving state down: every stream subscriber is
// disconnected and later publishes are no-ops.
func (m *SessionManager) removeLocked(ms *ManagedSession) {
	delete(m.sessions, ms.ID)
	ms.Broker.Close()
	// Drop the session's CoW store references so its share stops counting
	// against the budget. The memory stays readable: an in-flight round on
	// another goroutine finishes against the still-immutable pages.
	ms.Mem.Release()
	if m.Tenants != nil {
		m.Tenants.Release(ms.ID)
	}
}

func (m *SessionManager) reject() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rejectLocked()
}

func (m *SessionManager) rejectLocked() {
	if m.Tenants != nil {
		m.Tenants.Rejected.Inc()
	}
}

func (m *SessionManager) publishGaugesLocked() {
	m.Tenants.Active.Set(float64(len(m.sessions)))
	m.Tenants.MemBytes.Set(float64(m.totalMemLocked()))
}

// Len reports the resident session count.
func (m *SessionManager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.sessions)
}

// totalMemLocked recomputes the fleet's owned bytes: every resident
// session's private pages in full plus its amortized share of each shared
// page. Recomputed rather than cached because shares shift on every fork,
// CoW break, and eviction; the walk is O(resident pages) of atomic loads.
func (m *SessionManager) totalMemLocked() uint64 {
	var total uint64
	for _, ms := range m.sessions {
		total += ms.OwnedBytes()
	}
	return total
}

// TotalMem reports the owned (unique-equivalent) bytes resident across
// sessions — the quantity MemBudget caps. By construction this equals the
// sum over resident sessions of OwnedBytes(); the lifecycle invariant test
// holds the manager to it.
func (m *SessionManager) TotalMem() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.totalMemLocked()
}

// OwnedBytes reports the session's current owned bytes: CoW-broken private
// pages in full plus an amortized share of every page still shared through
// the store.
func (ms *ManagedSession) OwnedBytes() uint64 { return ms.Mem.OwnedBytes() }

// MemResidency returns the session's private/shared/owned breakdown for the
// debug surface.
func (ms *ManagedSession) MemResidency() mem.Residency { return ms.Mem.Residency() }

// SessionInfo is one tenant's manager-level health row. MemBytes is the
// mapped footprint; the residency triple breaks it down under CoW sharing
// (owned = private + amortized share of shared pages — what the budget
// charges).
type SessionInfo struct {
	ID           string    `json:"id"`
	Source       string    `json:"source"`
	Created      time.Time `json:"created"`
	IdleSeconds  float64   `json:"idle_seconds"`
	MemBytes     uint64    `json:"mem_bytes"`
	OwnedBytes   uint64    `json:"owned_bytes"`
	PrivateBytes uint64    `json:"private_bytes"`
	SharedBytes  uint64    `json:"shared_bytes"`
	Rounds       int64     `json:"rounds"`
	Figures      []string  `json:"figures"`
}

// List snapshots every resident session, sorted by ID.
func (m *SessionManager) List() []SessionInfo {
	m.mu.RLock()
	defer m.mu.RUnlock()
	now := m.now()
	out := make([]SessionInfo, 0, len(m.sessions))
	for _, ms := range m.sessions {
		figIDs := make([]string, len(ms.Figures))
		for i, f := range ms.Figures {
			figIDs[i] = f.ID
		}
		res := ms.MemResidency()
		out = append(out, SessionInfo{
			ID:           ms.ID,
			Source:       string(ms.Source),
			Created:      ms.Created,
			IdleSeconds:  now.Sub(ms.LastUsed()).Seconds(),
			MemBytes:     ms.MemBytes,
			OwnedBytes:   res.OwnedBytes,
			PrivateBytes: res.PrivateBytes,
			SharedBytes:  res.SharedBytes,
			Rounds:       ms.Rounds(),
			Figures:      figIDs,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
