// Package iosched provides the per-device shared IO scheduler that lets N
// concurrent queries execute against one graph session (ROADMAP item 1,
// after the multi-application sharing in FlashGraph and Graphene). A
// Scheduler wraps one ssd.Device and arbitrates the read requests that
// every query's pipeline.Reader submits to it, adding two mechanisms the
// raw device lacks:
//
//   - Cross-query IO coalescing: an in-flight read table records every
//     pending device read (page run + modeled completion time). A request
//     fully covered by a pending run attaches to it — the data is copied
//     from the backing with no transfer charge and no device read, and the
//     attacher's buffer becomes available when the original read completes.
//     Two queries walking the same page frontier cost one device read per
//     run instead of two.
//
//   - Deficit-based bandwidth sharing (DRR): each query accumulates the
//     device service time its requests consumed. When the device is
//     backlogged and one query has run more than a quantum ahead of its
//     most-starved active peer, that query's next submission is delayed by
//     the excess, letting the peer's requests land earlier on the device
//     horizon. The discipline is work-conserving: the delay never exceeds
//     the current device backlog, so a solo query (or an idle device) is
//     never throttled.
//
// Both mechanisms perturb only request timing, never page data, which is
// why concurrent query results stay bit-identical to serial runs (see
// algo's concurrent conformance tests).
//
// Determinism: under the Sim backend every entry point syncs the
// submitting proc before touching scheduler state, so state transitions
// happen in global virtual-timestamp order and a fixed interleave seed
// reproduces the exact same coalescing and pacing decisions run after run.
package iosched

import (
	"sync"

	"blaze/internal/exec"
	"blaze/internal/metrics"
	"blaze/internal/ssd"
	"blaze/internal/trace"
)

// DefaultQuantumBytes is the default DRR quantum: how far (in device
// service bytes) one query may run ahead of its most-starved peer on a
// backlogged device before its submissions are delayed.
const DefaultQuantumBytes = 1 << 20

// Config parameterizes a Scheduler.
type Config struct {
	// QuantumBytes is the DRR quantum; <= 0 selects DefaultQuantumBytes.
	QuantumBytes int64
	// NoCoalesce disables the in-flight read table (ablation knob).
	NoCoalesce bool
	// NoDRR disables deficit pacing (ablation knob).
	NoDRR bool
	// Stats receives session-wide coalescing totals (per-query attribution
	// goes to the stats passed to Register). May be nil. Device-read
	// accounting stays on the device's own IOStats, untouched.
	Stats *metrics.IOStats
}

// flight is one pending device read.
type flight struct {
	start int64 // first local page
	n     int   // run length in pages
	done  int64 // modeled completion time
}

// queryState is one registered query's scheduling state on this device.
type queryState struct {
	stats    *metrics.IOStats // attributed counters; may be nil
	servedNs int64            // device service time this query's reads consumed
}

// Scheduler arbitrates one device between concurrent queries. All methods
// are safe for concurrent use from multiple procs.
type Scheduler struct {
	dev       *ssd.Device
	cfg       Config
	quantumNs int64 // quantum converted to service time at the seq rate

	mu      sync.Mutex
	flights []flight
	queries map[int32]*queryState
}

// New returns a scheduler for dev.
func New(dev *ssd.Device, cfg Config) *Scheduler {
	if cfg.QuantumBytes <= 0 {
		cfg.QuantumBytes = DefaultQuantumBytes
	}
	return &Scheduler{
		dev:       dev,
		cfg:       cfg,
		quantumNs: svcNs(dev.Profile(), cfg.QuantumBytes),
		queries:   map[int32]*queryState{},
	}
}

// svcNs estimates device service time for bytes at the sequential rate —
// the deliberately optimistic estimate DRR uses for fairness comparisons
// (only relative magnitudes matter).
func svcNs(pr ssd.Profile, bytes int64) int64 {
	return int64(float64(bytes) * 1e9 / pr.SeqBytesPerSec)
}

// Register adds query q to the active set; stats (which may be nil)
// receives the query's attributed device-read and coalescing counters.
// Registering an existing id resets its state.
func (s *Scheduler) Register(q int32, stats *metrics.IOStats) {
	s.mu.Lock()
	s.queries[q] = &queryState{stats: stats}
	s.mu.Unlock()
}

// Finish retires query q from the scheduler entirely: it leaves the
// active DRR set and its per-query state is dropped, so a long-running
// server does not grow the query table (and the DRR clamp loop's work)
// with every query ever served. The query's in-flight table entries stay
// until they expire so late arrivals can still attach.
func (s *Scheduler) Finish(q int32) {
	s.mu.Lock()
	delete(s.queries, q)
	s.mu.Unlock()
}

// Tracked returns the number of queries the scheduler currently holds
// state for — the live queries. Bounded-state assertions (the session
// soak test, /statsz) watch this.
func (s *Scheduler) Tracked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queries)
}

// ScheduleRead submits a read of n contiguous local pages starting at
// start on behalf of query q. It has ssd.Device.ScheduleRead semantics —
// the data lands in buf, the returned instant is when buf may be consumed
// — but routes through the coalescing table and DRR pacing first.
func (s *Scheduler) ScheduleRead(p exec.Proc, q int32, start int64, n int, buf []byte) (int64, error) {
	// Order scheduler-state access in global timestamp order under Sim;
	// the mutex alone would admit scheduler-goroutine-order nondeterminism
	// under -race or future backends.
	p.Sync()
	now := p.Now()
	bytes := int64(n) * ssd.PageSize

	s.mu.Lock()
	s.prune(now)
	if !s.cfg.NoCoalesce {
		if f, ok := s.covering(start, n); ok {
			s.mu.Unlock()
			// Attach: real data movement, no transfer charge, no device
			// read. The buffer is ready when the covering read completes.
			if err := s.dev.CopyPending(p, start, n, buf); err != nil {
				return 0, err
			}
			s.mu.Lock()
			if st := s.cfg.Stats; st != nil {
				st.AddCoalesced(s.dev.ID, bytes, n)
			}
			if qs := s.queries[q]; qs != nil && qs.stats != nil {
				qs.stats.AddCoalesced(s.dev.ID, bytes, n)
			}
			s.mu.Unlock()
			trace.RingOf(p).Instant(trace.OpCoalesce, int32(s.dev.ID), now, int64(n))
			return f.done, nil
		}
	}
	delay := s.drrDelay(q, now, bytes)
	s.mu.Unlock()

	if delay > 0 {
		p.Sleep(delay)
	}
	done, err := s.dev.ScheduleRead(p, start, n, buf)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.flights = append(s.flights, flight{start: start, n: n, done: done})
	if qs := s.queries[q]; qs != nil && qs.stats != nil {
		qs.stats.AddRead(s.dev.ID, bytes, n)
	}
	s.mu.Unlock()
	return done, nil
}

// prune drops expired in-flight entries. Called with mu held.
func (s *Scheduler) prune(now int64) {
	live := s.flights[:0]
	for _, f := range s.flights {
		if f.done > now {
			live = append(live, f)
		}
	}
	s.flights = live
}

// covering returns the pending flight that fully contains [start,
// start+n), if any. Called with mu held.
func (s *Scheduler) covering(start int64, n int) (flight, bool) {
	for _, f := range s.flights {
		if f.start <= start && start+int64(n) <= f.start+int64(f.n) {
			return f, true
		}
	}
	return flight{}, false
}

// drrDelay charges query q's served-time account for a read of bytes and
// returns how long its submission must wait. Called with mu held.
//
// The discipline: let lead = q.servedNs - min(servedNs over active
// peers). If lead would exceed one quantum, the submission waits out the
// excess — during that wait the starved peers' procs run and their
// requests land earlier on the device horizon, which is exactly
// round-robin service at quantum granularity. Work conservation: the
// delay is capped by the device backlog, so an idle device never makes
// anyone wait; and peers' accounts are clamped to within one quantum
// behind, so a peer that computes for a long stretch cannot bank
// unbounded credit and later starve everyone else.
func (s *Scheduler) drrDelay(q int32, now, bytes int64) int64 {
	qs := s.queries[q]
	if qs == nil {
		// Unregistered (single-query/legacy path): no pacing, no account.
		return 0
	}
	est := svcNs(s.dev.Profile(), bytes)
	if s.cfg.NoDRR {
		qs.servedNs += est
		return 0
	}
	minServed := qs.servedNs
	peers := 0
	for id, x := range s.queries {
		if id == q {
			continue
		}
		peers++
		if x.servedNs < minServed {
			minServed = x.servedNs
		}
	}
	qs.servedNs += est
	if peers == 0 {
		return 0
	}
	// Clamp every account to within a quantum of the leader so imbalance
	// history is bounded (the "deficit" never exceeds one quantum).
	for _, x := range s.queries {
		if low := qs.servedNs - s.quantumNs; x.servedNs < low {
			x.servedNs = low
		}
	}
	lead := qs.servedNs - minServed
	if lead <= s.quantumNs {
		return 0
	}
	delay := lead - s.quantumNs
	if backlog := s.dev.BusyUntil() - now; delay > backlog {
		delay = backlog
	}
	if delay < 0 {
		delay = 0
	}
	return delay
}

// Table maps devices to their schedulers across every array a session
// serves. A session's forward and transpose graphs are distinct device
// sets, so engines must look schedulers up by the device they are about
// to read, never by device index alone.
type Table struct {
	m   map[*ssd.Device]*Scheduler
	all []*Scheduler
}

// NewTable returns an empty device→scheduler table.
func NewTable() *Table { return &Table{m: map[*ssd.Device]*Scheduler{}} }

// AddArray builds one scheduler per device of arr (devices already in the
// table keep their existing scheduler).
func (t *Table) AddArray(arr *ssd.Array, cfg Config) {
	for d := 0; d < arr.NumDevices(); d++ {
		dev := arr.Device(d)
		if _, ok := t.m[dev]; ok {
			continue
		}
		s := New(dev, cfg)
		t.m[dev] = s
		t.all = append(t.all, s)
	}
}

// For returns dev's scheduler, or nil when dev is not part of the session
// (callers fall back to the direct device path).
func (t *Table) For(dev *ssd.Device) *Scheduler {
	if t == nil {
		return nil
	}
	return t.m[dev]
}

// All returns every scheduler in the table, in AddArray order.
func (t *Table) All() []*Scheduler { return t.all }

// Register adds query q on every scheduler (see Scheduler.Register).
func (t *Table) Register(q int32, stats *metrics.IOStats) {
	for _, s := range t.all {
		s.Register(q, stats)
	}
}

// Finish retires query q on every scheduler (see Scheduler.Finish).
func (t *Table) Finish(q int32) {
	for _, s := range t.all {
		s.Finish(q)
	}
}
