// Package session implements the resident graph-service session: one
// loaded graph (plus optional transpose), one shared page cache, and one
// shared IO scheduler per device, against which N queries execute
// concurrently. Serving concurrent analytics from one loaded graph is the
// deployment FlashGraph and Graphene target with their per-application
// page caches; Blaze's paper leaves it as future work, and this package is
// that extension on top of the engine's session hooks (engine.Config's
// Scheds/QueryID/QueryCache surface).
//
// The sharing mechanisms live in four layers this package composes:
//
//   - internal/iosched: per-device schedulers that coalesce overlapping
//     reads from different queries (one device read per page run) and
//     enforce deficit-round-robin bandwidth sharing between the active
//     queries of a backlogged device.
//   - internal/pagecache: per-owner admission quotas — the session divides
//     cache capacity between active queries so one query's scan cannot
//     evict another's working set beyond its share; the split is
//     recomputed whenever a query joins or finishes.
//   - internal/engine: one run pool (engine.Pool) for every query's
//     engine, so IO buffers and bin Managers outlive the query that
//     allocated them and the next query reopens them.
//   - internal/metrics: per-query attributable IO and cache counters. A
//     query's device reads are double-entered — once on the session-wide
//     device stats (totals, unchanged accounting) and once on the query's
//     own IOStats — so the sum of per-query reads always equals the
//     session totals.
//
// Determinism: under the Sim backend concurrent queries execute in
// deterministic virtual-time order. The interleave seed perturbs each
// query's start offset by a hash-derived jitter, so a fixed seed
// reproduces the exact same coalescing, pacing, and cache decisions run
// after run, and different seeds exercise different interleavings.
package session

import (
	"errors"
	"fmt"
	"sync"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/iosched"
	"blaze/internal/metrics"
	"blaze/internal/pagecache"
	"blaze/internal/registry"
	"blaze/internal/ssd"
)

// ErrNoSlots is returned by NewQuery when the session's MaxQueries live
// queries are already active. Callers that queue work (internal/server)
// treat it as "try again after a Finish"; it never indicates a broken
// session.
var ErrNoSlots = errors.New("session: all query slots in use")

// maxJitterNs bounds the deterministic per-query start jitter under the
// Sim backend: small against any real query (a single page transfer is
// tens of microseconds) but enough to decorrelate pipeline phases.
const maxJitterNs = 1 << 16

// Config parameterizes a Session.
type Config struct {
	// Engine is the registry name queries are built with (must be
	// session-capable; see registry.SessionCapable).
	Engine string
	// Base is the engine construction surface shared by every query
	// (workers, binning, cost model, ...). Its session fields — Scheds,
	// QueryID, QueryCache, PageCache, Stats and Pool — are overridden per
	// query: every query's engine draws its IO buffers and bin Managers
	// from the session's one run pool, so a query after the first reuses
	// what an earlier one allocated.
	Base registry.Options
	// Cache is the shared page cache (nil or disabled = no caching; the
	// flashgraph baseline ignores it and keeps its private per-query LRU).
	Cache *pagecache.Cache
	// Seed is the deterministic interleave seed (0 = 1).
	Seed uint64
	// MaxQueries bounds the live (created, not yet Finished) queries: the
	// session's query slots. NewQuery returns ErrNoSlots at the bound;
	// 0 means unbounded (the pre-serving behavior). A long-running front
	// end sizes its worker pool to this.
	MaxQueries int
	// Stats receives session-wide coalescing totals; device-read totals
	// stay on the stats the graph's devices were built with. May be nil.
	Stats *metrics.IOStats
}

// Query is one query's identity and attributed measurements within a
// session.
type Query struct {
	ID int32
	// Sys is the query's engine instance.
	Sys algo.System
	// IO receives the query's attributed device reads and coalesced
	// attaches (per-device, from the shared schedulers).
	IO *metrics.IOStats
	// Cache receives the query's attributed shared-cache counters.
	Cache *metrics.CacheCounters
	// Err, StartNs and EndNs are filled by Run.
	Err            error
	StartNs, EndNs int64
	finished       bool
}

// ElapsedNs returns the query's makespan after Run.
func (q *Query) ElapsedNs() int64 { return q.EndNs - q.StartNs }

// Session owns the shared state N concurrent queries execute against.
type Session struct {
	Ctx exec.Context
	// Out and In are the session's resident forward and (optional)
	// transpose graphs.
	Out, In *engine.Graph

	cfg      Config
	scheds   *iosched.Table
	pool     *engine.Pool
	capPages int64

	mu      sync.Mutex
	nextID  int32
	active  int
	queries []*Query
}

// New builds a session over the already-loaded graphs (in may be nil for
// queries that never read the transpose). The graphs' devices keep their
// construction-time stats; cfg.Stats only adds session-wide coalescing
// totals on top.
func New(ctx exec.Context, out, in *engine.Graph, cfg Config) (*Session, error) {
	if out == nil {
		return nil, fmt.Errorf("session: nil graph")
	}
	if !registry.SessionCapable(cfg.Engine) {
		return nil, fmt.Errorf("session: engine %q cannot join a session (have %v)",
			cfg.Engine, registry.SessionNames())
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	// Coalescing and DRR sharing at iosched.DefaultQuantumBytes, always:
	// iosched's own tests are where the mechanisms are switched off.
	icfg := iosched.Config{Stats: cfg.Stats}
	t := iosched.NewTable()
	t.AddArray(out.Arr, icfg)
	if in != nil {
		t.AddArray(in.Arr, icfg)
	}
	s := &Session{Ctx: ctx, Out: out, In: in, cfg: cfg, scheds: t, pool: engine.NewPool()}
	if cfg.Cache.Enabled() {
		s.capPages = cfg.Cache.Bytes() / ssd.PageSize
	}
	return s, nil
}

// Scheds returns the session's device→scheduler table (the serving report
// reads its counters).
func (s *Session) Scheds() *iosched.Table { return s.scheds }

// Cache returns the shared page cache (nil when the session has none).
func (s *Session) Cache() *pagecache.Cache { return s.cfg.Cache }

// NewQuery registers the next query: allocates its attributed counters,
// constructs its engine instance through the registry, registers it with
// every device scheduler, and recomputes the cache quota split. On failure nothing is left behind: the
// reserved slot is released and no scheduler ever saw the id, so the
// active count and quota splits of later queries are unaffected.
func (s *Session) NewQuery() (*Query, error) {
	s.mu.Lock()
	if s.cfg.MaxQueries > 0 && s.active >= s.cfg.MaxQueries {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w (%d of %d)", ErrNoSlots, s.cfg.MaxQueries, s.cfg.MaxQueries)
	}
	id := s.nextID
	s.nextID++
	s.active++ // reserve the slot before the (fallible) construction below
	s.mu.Unlock()

	q := &Query{
		ID:    id,
		IO:    metrics.NewIOStats(s.Out.Arr.NumDevices()),
		Cache: &metrics.CacheCounters{},
	}
	opts := s.cfg.Base
	opts.Stats = q.IO
	opts.PageCache = s.cfg.Cache
	opts.Pool = s.pool
	opts.Scheds = s.scheds
	opts.QueryID = id
	opts.QueryCache = q.Cache
	sys, err := registry.New(s.cfg.Engine, s.Ctx, opts)
	if err != nil {
		s.mu.Lock()
		s.active--
		s.mu.Unlock()
		return nil, err
	}
	q.Sys = sys
	s.scheds.Register(id, q.IO)
	s.mu.Lock()
	s.queries = append(s.queries, q)
	s.mu.Unlock()
	s.rebalanceQuotas()
	return q, nil
}

// Active returns the number of live (created, not yet Finished) queries.
func (s *Session) Active() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active
}

// Slots returns the session's query-slot bound (0 = unbounded).
func (s *Session) Slots() int { return s.cfg.MaxQueries }

// rebalanceQuotas splits cache capacity evenly between active queries.
// SetQuota only gates future admissions, so shares grow in place as
// queries finish (resident pages are never retroactively evicted).
//
// When active queries outnumber cache pages an even split would round to
// zero, and the old "at least one page each" clamp made per-owner quotas
// sum past capacity. Instead only the first capPages live queries (in
// creation order — the ones closest to finishing) hold a one-page quota;
// the overflow queries are denied admission outright until a slot frees
// up, so the quotas always sum to at most the capacity.
func (s *Session) rebalanceQuotas() {
	if s.capPages == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == 0 {
		return
	}
	share := s.capPages / int64(s.active)
	holders := len(s.queries)
	if share < 1 {
		share = 1
		holders = int(s.capPages)
	}
	for i, q := range s.queries {
		if i < holders {
			s.cfg.Cache.SetQuota(q.ID, share)
		} else {
			s.cfg.Cache.DenyOwner(q.ID)
		}
	}
}

// Finish retires q: its scheduler accounts leave the DRR active set (its
// in-flight reads stay attachable until they expire), its cache quota is
// released, and the survivors' shares grow. The query also leaves the
// session's live set, so session state stays bounded no matter how many
// queries a long-running server pushes through.
func (s *Session) Finish(q *Query) {
	s.mu.Lock()
	if q.finished {
		s.mu.Unlock()
		return
	}
	q.finished = true
	s.active--
	for i, lq := range s.queries {
		if lq == q {
			s.queries = append(s.queries[:i], s.queries[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
	s.scheds.Finish(q.ID)
	if s.capPages > 0 {
		s.cfg.Cache.SetQuota(q.ID, 0)
	}
	s.rebalanceQuotas()
}

// Body is one query's work: it runs on its own proc against the query's
// engine.
type Body func(p exec.Proc, q *Query) error

// Run executes the bodies concurrently, one proc per query, from the
// caller's proc (which must be inside ctx.Run). All queries are created
// up front — so the quota split is stable before any admission — then
// spawned with their deterministic start jitter. Run waits for every
// query; per-query failures land in Query.Err, and the first non-nil one
// is also returned.
func (s *Session) Run(p exec.Proc, bodies ...Body) ([]*Query, error) {
	qs := make([]*Query, len(bodies))
	for i := range bodies {
		q, err := s.NewQuery()
		if err != nil {
			// Unwind the queries already created: without Finish they
			// would hold slots, quota shares, and scheduler accounts
			// forever, skewing every future quota split.
			for _, prev := range qs[:i] {
				s.Finish(prev)
			}
			return nil, err
		}
		qs[i] = q
	}
	wg := s.Ctx.NewWaitGroup()
	wg.Add(len(bodies))
	for i := range bodies {
		q, body := qs[i], bodies[i]
		s.Ctx.Go(fmt.Sprintf("query%d", q.ID), func(qp exec.Proc) {
			if jit := int64(splitmix64(s.cfg.Seed, uint64(q.ID)) % maxJitterNs); jit > 0 {
				qp.Advance(jit)
			}
			q.StartNs = qp.Now()
			q.Err = body(qp, q)
			q.EndNs = qp.Now()
			qp.Sync()
			s.Finish(q)
			wg.Done(qp)
		})
	}
	wg.Wait(p)
	var firstErr error
	for _, q := range qs {
		if q.Err != nil && firstErr == nil {
			firstErr = q.Err
		}
	}
	return qs, firstErr
}

// splitmix64 hashes (seed, i) to a well-mixed 64-bit value — the standard
// SplitMix64 finalizer, giving decorrelated jitters from sequential ids.
func splitmix64(seed, i uint64) uint64 { return gen.Mix64(seed + i*gen.Golden) }
