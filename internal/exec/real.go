package exec

import (
	"sync"
	"time"

	"blaze/internal/queue"
	"blaze/internal/trace"
)

// Real is the wall-clock backend: procs are goroutines, queues are mutex
// MPMC rings, and resources pace callers with short sleeps so that modeled
// device bandwidth holds in wall time.
type Real struct {
	start time.Time
	wg    sync.WaitGroup
	// free holds the procs whose goroutines have returned, for Go to hand
	// to the next ones: a proc is its goroutine's only while it runs.
	mu   sync.Mutex
	free []*realProc
}

// NewReal returns a real-time execution context.
func NewReal() *Real {
	return &Real{start: time.Now()}
}

// Run executes fn in the calling goroutine and waits for all procs spawned
// with Go to finish.
func (r *Real) Run(name string, fn func(Proc)) {
	fn(&realProc{ctx: r, name: name})
	r.wg.Wait()
}

// Go starts fn on a new goroutine, on a proc an exited goroutine left, if
// any: a steady stream of procs allocates nothing once as many as ever ran
// at once have been built.
func (r *Real) Go(name string, fn func(Proc)) {
	r.wg.Add(1)
	var p *realProc
	r.mu.Lock()
	if n := len(r.free); n > 0 {
		p, r.free = r.free[n-1], r.free[:n-1]
	}
	r.mu.Unlock()
	if p == nil {
		p = &realProc{ctx: r}
		p.start = p.run
	}
	p.name, p.fn = name, fn
	go p.start()
}

// NewWaitGroup returns a wait group backed by sync.WaitGroup.
func (r *Real) NewWaitGroup() WaitGroup { return &realWG{} }

// NewBarrier returns a cyclic barrier for n procs.
func (r *Real) NewBarrier(n int) Barrier {
	b := &realBarrier{n: n}
	b.cond.L = &b.mu
	return b
}

// NewResource returns a pacing rate limiter.
func (r *Real) NewResource(name string) Resource {
	return &realResource{ctx: r}
}

type realProc struct {
	ctx  *Real
	name string
	ring *trace.Ring
	// fn is the body Go was given; start is p.run, bound once when p is
	// built, so that "go p.start()" wraps no closure around p.
	fn    func(Proc)
	start func()
}

// run is p's goroutine: fn, then p goes back on its context's free list
// cleared of name, trace ring and body, and only then is the proc counted
// as done (deferred, so a body that exits its goroutine is counted too).
// Nothing here touches p once it is on the list.
func (p *realProc) run() {
	r := p.ctx
	defer r.wg.Done()
	p.fn(p)
	p.name, p.ring, p.fn = "", nil, nil
	r.mu.Lock()
	r.free = append(r.free, p)
	r.mu.Unlock()
}

func (p *realProc) Advance(ns int64)           {}
func (p *realProc) Sleep(ns int64)             { time.Sleep(time.Duration(ns)) }
func (p *realProc) Sync()                      {}
func (p *realProc) Name() string               { return p.name }
func (p *realProc) Now() int64                 { return int64(time.Since(p.ctx.start)) }
func (p *realProc) TraceRing() *trace.Ring     { return p.ring }
func (p *realProc) SetTraceRing(r *trace.Ring) { p.ring = r }

type realWG struct{ wg sync.WaitGroup }

func (w *realWG) Add(delta int) { w.wg.Add(delta) }
func (w *realWG) Done(p Proc)   { w.wg.Done() }
func (w *realWG) Wait(p Proc)   { w.wg.Wait() }

type realBarrier struct {
	mu    sync.Mutex
	cond  sync.Cond
	n     int
	count int
	gen   int
}

func (b *realBarrier) Wait(p Proc) {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
}

// realResource paces callers: each Acquire extends a virtual horizon by the
// busy time, and the caller sleeps whenever the horizon runs ahead of wall
// time by more than maxAhead. Short requests therefore batch into
// occasional coarse sleeps instead of thousands of sub-microsecond ones.
type realResource struct {
	ctx  *Real
	mu   sync.Mutex
	busy int64 // horizon, ns on ctx clock
}

// maxAhead bounds how far the modeled device may run ahead of wall time
// before the caller is put to sleep.
const maxAhead = int64(2 * time.Millisecond)

func (r *realResource) Acquire(p Proc, busy int64) int64 {
	now := p.Now()
	r.mu.Lock()
	if r.busy < now {
		r.busy = now
	}
	r.busy += busy
	done := r.busy
	r.mu.Unlock()
	if ahead := done - now; ahead > maxAhead {
		time.Sleep(time.Duration(ahead))
	}
	return done
}

// Schedule behaves like Acquire under the Real backend: pacing is the only
// mechanism available in wall time, so asynchronous submissions are paced
// at the point of submission.
func (r *realResource) Schedule(p Proc, busy int64) int64 {
	return r.Acquire(p, busy)
}

func (r *realResource) BusyUntil() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.busy
}

type realQueue[T any] struct{ r *queue.Ring[T] }

func newRealQueue[T any](capacity int) Queue[T] {
	return &realQueue[T]{r: queue.NewRing[T](capacity)}
}

func (q *realQueue[T]) Push(p Proc, v T) bool             { return q.r.Push(v) }
func (q *realQueue[T]) PushAt(p Proc, v T, at int64) bool { return q.r.Push(v) }
func (q *realQueue[T]) PushN(p Proc, vs []T) bool         { return q.r.PushN(vs) }
func (q *realQueue[T]) Pop(p Proc) (T, bool)              { return q.r.Pop() }
func (q *realQueue[T]) PopBatch(p Proc, dst []T) int      { return q.r.PopBatch(dst) }
func (q *realQueue[T]) TryPop(p Proc) (T, bool)           { return q.r.TryPop() }
func (q *realQueue[T]) Close()                            { q.r.Close() }
func (q *realQueue[T]) Len() int                          { return q.r.Len() }
func (q *realQueue[T]) Reopen(capacity int)               { q.r.Reopen(capacity) }
