// Package exec is the execution substrate that lets the Blaze engine, its
// baselines, and its benchmarks run under two interchangeable clocks:
//
//   - Real: plain goroutines, mutex-based MPMC queues, and wall-clock time.
//     Used by the examples, the CLI tools, and correctness tests.
//   - Sim: a deterministic cooperative virtual-time scheduler (a sequential
//     discrete-event execution). Procs carry virtual clocks, compute cost is
//     charged explicitly via Advance, and queues/wait-groups/barriers/
//     resources have virtual-time semantics. Used by the benchmark harness
//     to regenerate the paper's tables and figures on hardware that has
//     neither 20 cores nor an Optane SSD.
//
// The Sim backend executes the *real* computation (actual graphs, actual
// algorithm state); only timing is modeled. Each proc is a coroutine
// (iter.Pull) and Sim.Run is a loop on its caller's goroutine that resumes
// them one at a time in increasing virtual-clock order, so results are
// bit-deterministic across runs regardless of GOMAXPROCS. One coroutine
// runs at a time and the switch between them is the only synchronisation:
// the Sim backend holds no lock, and using a Sim proc or primitive from any
// goroutine other than the running proc's is a data race.
//
// Engine code follows one rule: every interaction with state shared across
// procs happens either through an exec primitive (Queue, Slot, WaitGroup,
// Barrier, Resource) or after calling Proc.Sync, which in the Sim backend
// parks the proc until it holds the minimum virtual clock. Blocking with
// primitives outside this package (channels, sync.Cond) would deadlock the
// simulation.
package exec

import "blaze/internal/trace"

// Proc is one simulated or real thread of execution. A Proc must only be
// used by the goroutine it was handed to.
type Proc interface {
	// Advance charges ns nanoseconds of compute cost to this proc's clock.
	// It is a no-op under the Real backend, where computation takes real
	// time.
	Advance(ns int64)
	// Sleep blocks this proc for ns nanoseconds of model time without
	// charging compute: the virtual clock jumps under Sim, the goroutine
	// sleeps under Real. It is how pacing code (an open-loop arrival
	// schedule, a fairness delay) waits the same way under both clocks.
	Sleep(ns int64)
	// Now returns this proc's clock in nanoseconds since Run started:
	// virtual time under Sim, wall time under Real.
	Now() int64
	// Sync orders this proc against all others. Under Sim it blocks until
	// the proc holds the minimal virtual clock, making a subsequent access
	// to shared state occur in global timestamp order. Under Real it is a
	// no-op (callers protect shared state with their own mutexes, which
	// are uncontended under Sim because procs run one at a time).
	Sync()
	// Name returns the debug name given to Go or Run.
	Name() string
	// TraceRing returns the per-proc trace event ring attached with
	// SetTraceRing, or nil when the execution is untraced — the common
	// case, which every emission site reduces to a nil check. The slot
	// lives on the proc (rather than in a tracer-side map) so emission
	// needs no lookup and no synchronization: only the proc's own
	// goroutine touches it.
	TraceRing() *trace.Ring
	// SetTraceRing attaches a trace ring to this proc. Engines call it
	// (via trace.Tracer.Attach) from the proc's own goroutine right after
	// spawn, before any emission.
	SetTraceRing(r *trace.Ring)
}

// Context creates procs and synchronization primitives for one execution.
type Context interface {
	// Go starts fn as a new proc. It must be called from a running proc
	// (including the root proc passed to Run).
	Go(name string, fn func(Proc))
	// NewWaitGroup returns a wait group usable across procs.
	NewWaitGroup() WaitGroup
	// NewBarrier returns a cyclic barrier for n procs.
	NewBarrier(n int) Barrier
	// NewResource returns a serially-shared timed resource (e.g. one SSD's
	// bandwidth).
	NewResource(name string) Resource
	// Run executes fn as the root proc and returns when fn and, under Sim,
	// every proc it spawned have finished.
	Run(name string, fn func(Proc))
}

// WaitGroup mirrors sync.WaitGroup with proc-aware Done/Wait so the Sim
// backend can propagate virtual completion times to waiters.
//
// A WaitGroup may be reused for another set of procs once Wait has
// returned and no Done is pending: it is then indistinguishable from a new
// one from the same context. Under Sim it keeps no clock and no waiter, so
// a WaitGroup reused in a later Run carries nothing from an earlier one.
type WaitGroup interface {
	Add(delta int)
	Done(p Proc)
	Wait(p Proc)
}

// Barrier is a cyclic barrier: the nth arriving proc releases all waiters,
// and under Sim every released proc resumes at the maximum arrival clock.
type Barrier interface {
	Wait(p Proc)
}

// Resource models a device that serves requests serially at a given speed
// (the caller computes the busy time per request). Under Sim, Acquire jumps
// the caller's clock to the request's completion time; under Real it paces
// the caller with short sleeps so wall-clock throughput matches the model.
type Resource interface {
	// Acquire blocks p for busy nanoseconds of exclusive resource time and
	// returns the completion timestamp on p's clock.
	Acquire(p Proc, busy int64) int64
	// Schedule enqueues busy nanoseconds of resource work asynchronously:
	// it extends the resource horizon and returns the completion timestamp
	// without advancing p's clock. This models asynchronous IO, where the
	// submitting thread keeps running while the device works; the caller
	// typically hands the completion time to Queue.PushAt.
	Schedule(p Proc, busy int64) int64
	// BusyUntil returns the resource's current horizon (last completion
	// timestamp), for utilization accounting.
	BusyUntil() int64
}

// Queue is a bounded MPMC FIFO with close-and-drain semantics, usable from
// any proc of the owning context.
type Queue[T any] interface {
	// Push appends v, blocking while full; it reports false if the queue
	// was closed first.
	Push(p Proc, v T) bool
	// PushAt appends v like Push but stamps it as available no earlier
	// than the virtual instant at (e.g. an asynchronous IO completion from
	// Resource.Schedule). Under the Real backend it behaves like Push; the
	// producing Resource already paced the caller.
	PushAt(p Proc, v T, at int64) bool
	// PushN appends every item of vs in order. Under the Real backend the
	// whole batch moves under one lock acquisition per free-space chunk;
	// under Sim it is semantically identical to len(vs) Push calls, so
	// virtual-time figures do not depend on the caller's batching. It
	// reports false if the queue was closed before all items were enqueued.
	PushN(p Proc, vs []T) bool
	// Pop removes the oldest item, blocking while empty; it reports false
	// once the queue is closed and drained.
	Pop(p Proc) (T, bool)
	// PopBatch blocks for at least one item, then drains up to len(dst)
	// items without further blocking; 0 means closed and drained. The Real
	// backend moves the whole batch under one lock acquisition. The Sim
	// backend intentionally returns at most one item per call: virtual-time
	// item transfer stays per-item so that batching — a wall-clock
	// optimization — cannot perturb the deterministic figures.
	PopBatch(p Proc, dst []T) int
	// TryPop removes the oldest item without blocking.
	TryPop(p Proc) (T, bool)
	// Close rejects further pushes and wakes all blocked procs.
	Close()
	// Len returns the current queue length.
	Len() int
	// Reopen readies a closed and drained queue for another round, reusing
	// its storage: afterwards it is indistinguishable from
	// NewQueue(ctx, capacity) — open, empty, nobody waiting and, under Sim,
	// no item stamp left from an earlier Run. It is the queue's Slot.Renew:
	// whoever keeps queues from one round to the next calls it once every
	// proc that used the queue has returned. A queue that still holds an
	// item or a waiter panics.
	Reopen(capacity int)
}

// NewQueue returns a queue bound to ctx's backend with the given capacity.
func NewQueue[T any](ctx Context, capacity int) Queue[T] {
	switch c := ctx.(type) {
	case *Real:
		return newRealQueue[T](capacity)
	case *Sim:
		return newSimQueue[T](c, capacity)
	default:
		panic("exec: unknown Context implementation")
	}
}
