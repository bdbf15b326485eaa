// Package bin implements Blaze's online binning (§IV-A), the paper's core
// contribution: an atomic-free scatter→gather value propagation scheme.
//
// A bin holds (destination vertex, value) records for the vertex class
// dst % binCount. Scatter procs append records through small per-proc
// staging buffers (the paper's per-CPU buffers) that flush in batches.
// Each bin is implemented as a pair of buffers: while one fills, the other
// may be draining in a gather proc. Full buffers flow through the
// full_bins MPMC queue to gather procs.
//
// The no-synchronization guarantee: a destination vertex belongs to exactly
// one bin, and the pair protocol ensures at most one buffer of a given bin
// is ever in flight to the gather side — a scatter proc must first reclaim
// the bin's spare buffer (blocking until the previous drain finished)
// before publishing a newly filled one. Hence no two gather procs ever
// update the same vertex concurrently, and gather functions need no
// atomics.
//
// Ownership is two exec.Slots per bin. slot[b] holds the records of the
// active half: a staging flush Takes them (exclusive fill access), appends
// its run with one copy and Puts them back — under the real backend one
// lock word and one slice header on one cache line, under virtual time the
// capacity-1 queue the model was calibrated with, behind one code path.
// empty[b] holds the spare half, Put there by the gather proc that drained
// it. Staging is one flat binCount × StageCap array per scatter proc. A
// Manager outlives its round: after a clean one every buffer is parked in
// its slot and every active half is empty, which is the primed state but
// for the instants the slots were last Put at, so engine.Pool keeps the
// whole Manager and Reopens it.
package bin

import (
	"sync/atomic"

	"blaze/internal/exec"
	"blaze/internal/trace"
)

// StageCap is the per-bin capacity (in records) of each scatter proc's
// staging buffer — one cache line of 8-byte records, as in propagation
// blocking.
const StageCap = 8

// Record is one binned update.
type Record[V any] struct {
	Dst uint32
	Val V
}

// Buffer is one half of a bin pair.
type Buffer[V any] struct {
	BinID   int
	Records []Record[V]
	// twin is the other half of the pair.
	twin *Buffer[V]
}

// Manager owns all bins of one EdgeMap execution — or, retained by an
// engine.Pool and Reopened each round, of every execution under one context
// and configuration.
type Manager[V any] struct {
	ctx      exec.Context
	cfg      Config // as given to NewManager; what Reopen matches
	binCount int
	// mask is binCount-1 when binCount is a power of two (BinOf is then one
	// AND), otherwise -1.
	mask   int
	bufCap int
	// slot[b] holds the records of bin b's active half so far, capacity
	// bufCap; taking them grants exclusive fill access. It is the slice
	// itself, not its Buffer, so a flush touches one shared cache line (the
	// slot) besides the records it writes.
	slot []exec.Slot[[]Record[V]]
	// empty[b] holds bin b's spare half whenever it is not on the gather
	// side; a scatter proc that filled the active half blocks here until
	// the previous drain of this bin has finished.
	empty []exec.Slot[*Buffer[V]]
	// Full is the full_bins MPMC queue consumed by gather procs.
	Full exec.Queue[*Buffer[V]]

	stageCap  int
	flushCost int64
	// records is aggregated from per-stager counters at Stager.FlushAll
	// time (one atomic add per stager per round, not one per record): the
	// scatter hot path stays contention-free, as §IV-A's atomic-free claim
	// requires.
	records atomic.Int64
}

// Config sizes a Manager.
type Config struct {
	// BinCount is the number of bins (the paper's default heuristic is
	// one thousand; we default to 1024).
	BinCount int
	// SpaceBytes is the total bin memory budget; each bin gets
	// SpaceBytes / (2*BinCount) per buffer.
	SpaceBytes int64
	// RecordBytes is the marshalled size of one record (4 + sizeof(V)),
	// used only for sizing and accounting.
	RecordBytes int
	// StageCap overrides the per-bin staging capacity (default StageCap);
	// the ablation benchmarks use it to quantify the per-CPU buffer's
	// contribution.
	StageCap int
	// FlushCostNs is the virtual-time CPU cost charged per staging flush
	// (costmodel.BinFlush); it has no effect under the real-time backend,
	// where the flush itself takes real time.
	FlushCostNs int64
}

// NewManager builds the bins, their slots and the full queue under ctx.
func NewManager[V any](ctx exec.Context, cfg Config) *Manager[V] {
	given := cfg
	if cfg.BinCount < 1 {
		cfg.BinCount = 1
	}
	if cfg.RecordBytes < 1 {
		cfg.RecordBytes = 8
	}
	bufCap := int(cfg.SpaceBytes / int64(2*cfg.BinCount) / int64(cfg.RecordBytes))
	if cfg.StageCap > 0 && bufCap < cfg.StageCap {
		bufCap = cfg.StageCap
	}
	if bufCap < StageCap {
		bufCap = StageCap
	}
	stage := cfg.StageCap
	if stage < 1 {
		stage = StageCap
	}
	mask := -1
	if cfg.BinCount&(cfg.BinCount-1) == 0 {
		mask = cfg.BinCount - 1
	}
	return &Manager[V]{
		ctx:       ctx,
		cfg:       given,
		binCount:  cfg.BinCount,
		mask:      mask,
		stageCap:  stage,
		flushCost: cfg.FlushCostNs,
		bufCap:    bufCap,
		slot:      exec.NewSlots[[]Record[V]](ctx, cfg.BinCount),
		empty:     exec.NewSlots[*Buffer[V]](ctx, cfg.BinCount),
		Full:      exec.NewQueue[*Buffer[V]](ctx, cfg.BinCount+1),
	}
}

// Prime loads the initial buffer pair into every bin, all carved from one
// allocation. It must run inside a proc before any Emit.
func (m *Manager[V]) Prime(p exec.Proc) {
	bufs := make([]Buffer[V], 2*m.binCount)
	recs := make([]Record[V], 2*m.binCount*m.bufCap)
	for b := 0; b < m.binCount; b++ {
		active, spare := &bufs[2*b], &bufs[2*b+1]
		active.BinID, active.twin = b, spare
		spare.BinID, spare.twin = b, active
		spare.Records = recs[m.bufCap : m.bufCap : 2*m.bufCap]
		m.slot[b].Put(p, recs[:0:m.bufCap])
		m.empty[b].Put(p, spare)
		recs = recs[2*m.bufCap:]
	}
}

// Reopen readies a Manager retained from an earlier round for another one:
// it reports whether m was built under ctx with exactly cfg, and if so puts
// it back in the state Prime leaves a fresh one in — the full queue
// reopened (closed and drained by the earlier round's CloseFull and
// gathers), every parked buffer re-offered by p as of now (a Sim Run
// restarts the clocks, so the instants of the previous round's Puts must
// not survive into this one), the round's record count zeroed. The earlier
// round must have run to a clean end — FlushPartials, CloseFull, every
// gather returned its buffers — which leaves every buffer parked in its
// slot and every active buffer empty. A failed round skips FlushPartials
// and leaves records behind: drop its Manager instead.
func (m *Manager[V]) Reopen(ctx exec.Context, p exec.Proc, cfg Config) bool {
	if m.ctx != ctx || m.cfg != cfg {
		return false
	}
	m.Full.Reopen(m.binCount + 1)
	for b := range m.slot {
		m.slot[b].Renew(p)
		m.empty[b].Renew(p)
	}
	m.records.Store(0)
	return true
}

// BufCap returns the per-buffer record capacity.
func (m *Manager[V]) BufCap() int { return m.bufCap }

// BinOf maps a destination vertex to its bin, dst % binCount.
func (m *Manager[V]) BinOf(dst uint32) int {
	if m.mask >= 0 {
		return int(dst) & m.mask
	}
	return int(dst % uint32(m.binCount))
}

// Records returns the total records binned so far.
func (m *Manager[V]) Records() int64 { return m.records.Load() }

// MemBytes returns the bin-space footprint (both halves of every pair).
func (m *Manager[V]) MemBytes(recordBytes int) int64 {
	return int64(m.binCount) * 2 * int64(m.bufCap) * int64(recordBytes)
}

// flushBin moves records into bin b, publishing buffers as they fill.
func (m *Manager[V]) flushBin(p exec.Proc, b int, recs []Record[V]) {
	if m.flushCost != 0 {
		p.Advance(m.flushCost)
	}
	slot := m.slot[b]
	fill := slot.Take(p)
	for len(recs) > 0 {
		n := copy(fill[len(fill):m.bufCap], recs)
		fill = fill[:len(fill)+n]
		recs = recs[n:]
		if len(fill) == m.bufCap {
			fill = m.publish(p, b, fill)
			if tr := trace.RingOf(p); tr.Active() {
				now := p.Now()
				tr.Instant(trace.OpBinFlush, int32(b), now, int64(m.bufCap))
				tr.Counter(trace.OpFullLen, 0, now, int64(m.Full.Len()))
			}
		}
	}
	slot.Put(p, fill)
}

// publish hands fill, the records of bin b's active half, to the gather
// side and returns the spare half, emptied, to fill next. Pair protocol:
// the spare is reclaimed first — this blocks until any previous drain of
// this bin finished, guaranteeing at most one buffer per bin on the gather
// side.
func (m *Manager[V]) publish(p exec.Proc, b int, fill []Record[V]) []Record[V] {
	spare := m.empty[b].Take(p)
	spare.twin.Records = fill
	m.Full.Push(p, spare.twin)
	return spare.Records[:0]
}

// FlushPartials publishes every bin's non-empty active buffer. Call it from
// the coordinating proc after all scatter procs have finished and flushed
// their stagers; follow with CloseFull.
func (m *Manager[V]) FlushPartials(p exec.Proc) {
	for b, slot := range m.slot {
		fill := slot.Take(p)
		if n := len(fill); n > 0 {
			fill = m.publish(p, b, fill)
			if tr := trace.RingOf(p); tr.Active() {
				tr.Instant(trace.OpBinFlush, int32(b), p.Now(), int64(n))
			}
		}
		slot.Put(p, fill)
	}
}

// CloseFull ends the gather stream.
func (m *Manager[V]) CloseFull() { m.Full.Close() }

// Return hands a drained buffer back to its bin; gather procs call it
// after processing.
func (m *Manager[V]) Return(p exec.Proc, buf *Buffer[V]) {
	m.empty[buf.BinID].Put(p, buf)
}

// Stager is one scatter proc's per-bin staging area (the per-CPU buffer of
// §IV-A). It is not safe for concurrent use; create one per proc.
//
// The stage is one flat array, bin b's records at [b*stageCap, +count[b]),
// made with the stager: every EdgeMap owner pools its stagers, so the stage
// is paid once per pooled round, never by a warm round whose proc emits for
// the first time, and Emit tests nothing for it.
//
// The counter is proc-local: Emit and the flush path touch no shared state
// beyond the slot protocol, and the total reaches the Manager in one atomic
// add per FlushAll instead of one per record.
//
// The struct fills two whole cache lines, so no two stagers share one. At
// 88 bytes the allocator placed a Manager's stagers 96 bytes apart, and
// whether one proc's Emit then invalidated a line the other read on every
// Emit depended on the process's allocation history: BFS ran at two speeds
// from one process to the next.
type Stager[V any] struct {
	m     *Manager[V]
	recs  []Record[V]
	count []int32
	emits int64
	// pubEmits tracks what has already been published to the Manager, so
	// repeated Emit/FlushAll cycles aggregate exactly once.
	pubEmits int64
	_        [56]byte // to 128 bytes, a size class of whole lines
}

// NewStager returns a staging area for one scatter proc.
func (m *Manager[V]) NewStager() *Stager[V] {
	return &Stager[V]{m: m, recs: make([]Record[V], m.binCount*m.stageCap), count: make([]int32, m.binCount)}
}

// Emit stages one record, flushing its bin's stage when full.
func (s *Stager[V]) Emit(p exec.Proc, dst uint32, val V) {
	m := s.m
	b := m.BinOf(dst)
	row, n := b*m.stageCap, int(s.count[b])
	s.recs[row+n] = Record[V]{dst, val}
	s.emits++
	if n++; n == m.stageCap {
		m.flushBin(p, b, s.recs[row:row+n])
		n = 0
	}
	s.count[b] = int32(n)
}

// Emits returns the number of records this stager produced.
func (s *Stager[V]) Emits() int64 { return s.emits }

// FlushAll drains every non-empty stage and publishes this stager's record
// count to the Manager; call before the scatter proc exits.
func (s *Stager[V]) FlushAll(p exec.Proc) {
	for b, n := range s.count {
		if n > 0 {
			s.m.flushBin(p, b, s.recs[b*s.m.stageCap:][:n])
			s.count[b] = 0
		}
	}
	if d := s.emits - s.pubEmits; d != 0 {
		s.m.records.Add(d)
		s.pubEmits = s.emits
	}
}

// MemBytes returns the staging footprint of one stager.
func (s *Stager[V]) MemBytes(recordBytes int) int64 {
	return int64(s.m.binCount) * int64(s.m.stageCap) * int64(recordBytes)
}
