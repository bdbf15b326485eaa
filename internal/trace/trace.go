// Package trace is the pipeline tracing and stage-metrics subsystem. It
// observes every EdgeMap engine through the shared stage library
// (internal/pipeline) plus the device layer (internal/ssd) and the online
// bins (internal/bin): each pipeline proc — page-frontier source, per-device
// reader, scatter, gather, combined compute sink — owns a private event ring
// it appends spans and counters to, and a collector aggregates the rings
// into per-stage time histograms, queue-occupancy series, and per-device IO
// breakdowns after the execution has quiesced.
//
// Design constraints, in order:
//
//   - Zero cost when absent. Engines attach rings to procs only when a
//     Tracer is configured, and a ring records exactly when it is non-nil:
//     with no Tracer every emission site is one nil check on a proc-local
//     pointer.
//   - No locks on the hot path. A ring has exactly one writer (its proc)
//     and belongs to it until Collect, which runs after the execution
//     context's Run has returned, when every proc has finished: events
//     append to a writer-owned chunk, a full chunk joins the ring's list of
//     completed chunks once every chunkCap events, and nothing else
//     touches the ring while the run lasts.
//   - Deterministic under virtual time. Timestamps come from exec.Proc
//     clocks, emission performs no exec primitive operations (no queue ops,
//     no Sync, no Advance), and ring registration follows proc start order,
//     which the Sim scheduler makes reproducible. A traced simulated run
//     therefore produces byte-identical output every time, which is what
//     the golden tests pin down.
//
// The package deliberately does not import internal/exec: exec procs store
// a *Ring directly (see exec.Proc.TraceRing), so trace sees procs through
// the structural Proc interface below and no import cycle forms.
package trace

import (
	"sort"
	"sync"
)

// Proc is the subset of exec.Proc the tracer needs. It is declared
// structurally (rather than importing internal/exec) because exec stores
// per-proc rings and therefore imports this package.
type Proc interface {
	// Name returns the proc debug name ("io0", "scatter3", ...).
	Name() string
	// Now returns the proc clock in nanoseconds: virtual time under the
	// simulated backend, wall time under the real one.
	Now() int64
	// TraceRing returns the ring attached to this proc, or nil.
	TraceRing() *Ring
	// SetTraceRing attaches a ring to this proc.
	SetTraceRing(*Ring)
}

// Stage classifies a proc's role in the pipeline (Fig. 5 of the paper).
type Stage uint8

const (
	// StageCoord is the coordinating proc that runs an EdgeMap call and
	// emits the phase spans partitioning its makespan.
	StageCoord Stage = iota
	// StageSource is the vertex→page frontier conversion.
	StageSource
	// StageIO is a per-device reader proc.
	StageIO
	// StageScatter is a bin-scatter proc (blaze) or message-scatter proc
	// (flashgraph).
	StageScatter
	// StageGather is a bin-gather proc (blaze) or message-processing owner
	// (flashgraph).
	StageGather
	// StageCompute is a combined scatter+apply sink (blaze-sync, graphene,
	// inmem workers).
	StageCompute
	// StageSink covers output-side helpers (frontier merge).
	StageSink
)

// stageNames indexes by Stage for export and summaries.
var stageNames = [...]string{"coord", "source", "io", "scatter", "gather", "compute", "sink"}

// String returns the stage's export name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage?"
}

// Op identifies what an event measures.
type Op uint8

const (
	// OpPhase is a coordinator phase span; Arg is a Phase value.
	OpPhase Op = iota
	// OpDevRead is one device read request span, submit → modeled
	// completion; Dev is the device, Arg the page count. Emitted by
	// ssd.Device, so every engine's IO — including graphene's self-placed
	// devices — is covered without engine cooperation.
	OpDevRead
	// OpDevRetry is an instant marking one retried transient read; Dev is
	// the device.
	OpDevRetry
	// OpCacheHit is an instant marking pages served from the page cache
	// instead of the device; Dev is the device the pages would have come
	// from, Arg the number of pages the probe served (a merged run can be
	// fully or partially cached).
	OpCacheHit
	// OpCacheEvict is an instant marking one resident page displaced from
	// the page cache by a fill; Dev is the device the filling read used.
	OpCacheEvict
	// OpCacheGhostHit is an instant marking a page readmitted to the cache
	// while its key was still on the ghost list (a recently evicted page
	// that came back); Dev is the device the filling read used.
	OpCacheGhostHit
	// OpIOWait is a reader span spent blocked claiming a free buffer.
	OpIOWait
	// OpSinkWait is a sink span spent blocked on the filled queue.
	OpSinkWait
	// OpSinkBuf is a sink span processing one filled buffer; Dev is the
	// buffer's device, Arg its page count.
	OpSinkBuf
	// OpBinFlush is an instant marking one bin buffer published to the
	// gather side, by a staging flush that filled it or by the final
	// partial flush; Dev is the bin, Arg the record count. A staging
	// flush that leaves its bin's buffer unfilled emits nothing.
	OpBinFlush
	// OpGatherBin is a gather span draining one full bin buffer; Dev is
	// the bin, Arg the record count.
	OpGatherBin
	// OpFreeLen, OpFilledLen and OpFullLen are queue-occupancy counters
	// for the free/filled IO buffer queues and the full-bins queue.
	OpFreeLen
	OpFilledLen
	OpFullLen
	// OpCoalesce is an instant marking a read request served by attaching
	// to another query's in-flight device read (see internal/iosched); Dev
	// is the device, Arg the page count coalesced away.
	OpCoalesce
	numOps
)

// opNames indexes by Op for export and summaries.
var opNames = [...]string{
	"phase", "dev-read", "dev-retry", "cache-hit", "cache-evict",
	"cache-ghost-hit", "io-wait",
	"sink-wait", "sink-buf", "bin-flush", "gather-bin",
	"free-len", "filled-len", "full-len", "coalesce",
}

// String returns the op's export name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// Phase enumerates the coordinator phase spans of one EdgeMap call. The
// phases are contiguous on the coordinator clock, so their durations (plus
// whatever the coordinator spends outside EdgeMap) partition the makespan.
type Phase int64

const (
	// PhaseSource covers the vertex→page frontier conversion and its
	// modeled cost.
	PhaseSource Phase = iota
	// PhasePipeline covers the streaming pipeline: readers, scatter,
	// binning and gather, until the last compute proc joined.
	PhasePipeline
	// PhaseMerge covers folding per-proc output frontiers and the final
	// bookkeeping of the call.
	PhaseMerge
	numPhases
)

// phaseNames indexes by Phase.
var phaseNames = [...]string{"source", "pipeline", "merge"}

// String returns the phase's export name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "phase?"
}

// Kind distinguishes event shapes.
type Kind uint8

const (
	// KindSpan is a duration event: [Start, Start+Dur).
	KindSpan Kind = iota
	// KindInstant is a point event at Start.
	KindInstant
	// KindCounter is a sampled value (Arg) at Start.
	KindCounter
)

// Event is one trace record. Events are fixed-size and self-contained so
// rings stay allocation-free between chunk boundaries.
type Event struct {
	// Start is the proc-clock timestamp in nanoseconds.
	Start int64
	// Dur is the span duration (KindSpan only).
	Dur int64
	// Arg is the op-specific payload: pages, records, queue length, phase.
	Arg int64
	// Dev is the op-specific lane: device, bin, or -1.
	Dev int32
	// Op identifies the measurement; Kind its shape.
	Op   Op
	Kind Kind
}

// End returns the span's end timestamp.
func (e Event) End() int64 { return e.Start + e.Dur }

// chunkCap is the ring chunk size in events: a full chunk is kept as it is
// and a new one started, so a traced proc allocates once every 4096
// events rather than copying a growing slice.
const chunkCap = 4096

// Ring is one proc's private event buffer: the chunk being written plus the
// completed ones. Exactly one goroutine emits into a Ring, and Collect reads
// it after that goroutine has finished.
type Ring struct {
	id    int
	name  string
	stage Stage
	dev   int32
	query int32 // owning query id in session mode; -1 when single-query

	active []Event
	done   [][]Event
}

// emit appends one event, starting a new chunk when the active one is
// full. A nil ring makes this a no-op.
func (r *Ring) emit(e Event) {
	if r == nil {
		return
	}
	if r.active == nil {
		r.active = make([]Event, 0, chunkCap)
	}
	r.active = append(r.active, e)
	if len(r.active) == chunkCap {
		r.done = append(r.done, r.active)
		r.active = nil
	}
}

// Span records a duration event from start to end on the proc clock.
func (r *Ring) Span(op Op, dev int32, start, end, arg int64) {
	r.emit(Event{Op: op, Kind: KindSpan, Dev: dev, Start: start, Dur: end - start, Arg: arg})
}

// Instant records a point event at now.
func (r *Ring) Instant(op Op, dev int32, now, arg int64) {
	r.emit(Event{Op: op, Kind: KindInstant, Dev: dev, Start: now, Arg: arg})
}

// Counter records a sampled value at now.
func (r *Ring) Counter(op Op, dev int32, now, val int64) {
	r.emit(Event{Op: op, Kind: KindCounter, Dev: dev, Start: now, Arg: val})
}

// Active reports whether events emitted now would be recorded, that is
// whether r is non-nil; emission sites bracketing extra clock reads use it
// to keep the untraced path free of them.
func (r *Ring) Active() bool { return r != nil }

// RingOf returns p's attached ring (nil-safe); the one-liner every
// emission site in the engines uses.
func RingOf(p Proc) *Ring {
	if p == nil {
		return nil
	}
	return p.TraceRing()
}

// Config parameterizes a Tracer. It has no settings: every event is
// recorded.
type Config struct{}

// Tracer owns the rings of one execution. Construct one per traced run,
// thread it through the engine configuration (registry.Options.Tracer),
// and Collect after the run's Context.Run returns.
type Tracer struct {
	mu    sync.Mutex
	rings []*Ring
}

// New returns a tracer; every ring it attaches records.
func New(Config) *Tracer { return &Tracer{} }

// Attach gives p a ring registered under the given stage and lane and
// returns it. It is idempotent: a proc that already carries a ring keeps
// it. A nil tracer attaches nothing and returns nil, which every emission
// helper tolerates — engines call Attach unconditionally.
func (t *Tracer) Attach(p Proc, stage Stage, dev int32) *Ring {
	return t.AttachQuery(p, stage, dev, -1)
}

// AttachQuery is Attach with a query-ID dimension: rings from concurrent
// queries sharing one session carry their owning query so the exporters
// can demux otherwise identically named per-proc tracks. query -1 means
// single-query mode and leaves every export byte-identical to Attach.
func (t *Tracer) AttachQuery(p Proc, stage Stage, dev, query int32) *Ring {
	if t == nil {
		return nil
	}
	if r := p.TraceRing(); r != nil {
		return r
	}
	r := &Ring{name: p.Name(), stage: stage, dev: dev, query: query}
	t.mu.Lock()
	r.id = len(t.rings)
	t.rings = append(t.rings, r)
	t.mu.Unlock()
	p.SetTraceRing(r)
	return r
}

// ProcTrace is one ring's collected event stream.
type ProcTrace struct {
	ID    int
	Name  string
	Stage Stage
	Dev   int32
	// Query is the owning query id in session mode, -1 otherwise.
	Query  int32
	Events []Event
}

// Trace is a fully collected execution trace.
type Trace struct {
	Procs []ProcTrace
}

// Collect returns the full trace in registration order. Call it after the
// execution context's Run returned, when every proc has finished and no
// ring has a writer left.
func (t *Tracer) Collect() *Trace {
	if t == nil {
		return &Trace{}
	}
	t.mu.Lock()
	rings := make([]*Ring, len(t.rings))
	copy(rings, t.rings)
	t.mu.Unlock()
	tr := &Trace{Procs: make([]ProcTrace, 0, len(rings))}
	for _, r := range rings {
		var events []Event
		for _, c := range r.done {
			events = append(events, c...)
		}
		events = append(events, r.active...)
		tr.Procs = append(tr.Procs, ProcTrace{
			ID: r.id, Name: r.name, Stage: r.stage, Dev: r.dev, Query: r.query,
			Events: events,
		})
	}
	sort.Slice(tr.Procs, func(i, j int) bool { return tr.Procs[i].ID < tr.Procs[j].ID })
	return tr
}

// Makespan returns the largest event end timestamp in the trace — the
// traced execution's extent on the shared clock.
func (tr *Trace) Makespan() int64 {
	var end int64
	for _, p := range tr.Procs {
		for _, e := range p.Events {
			if t := e.End(); t > end {
				end = t
			}
		}
	}
	return end
}

// Events returns the total event count.
func (tr *Trace) Events() int {
	n := 0
	for _, p := range tr.Procs {
		n += len(p.Events)
	}
	return n
}
