package exec

import (
	"fmt"
	"iter"
	"sort"
	"strings"

	"blaze/internal/trace"
)

// Sim is the virtual-time backend: a sequential, deterministic
// discrete-event execution. Every proc is an iter.Pull coroutine and Run is
// a plain loop on its caller's goroutine that resumes the runnable proc with
// the smallest (clock, sequence) pair, so every interaction with shared
// state happens in global timestamp order and the whole execution is
// deterministic.
//
// Exactly one coroutine runs at a time and a coroutine switch is the only
// synchronisation there is: Sim holds no lock, so touching a Sim primitive
// from a goroutine that is not the running proc is a data race.
//
// A proc advances its own clock freely with Advance (no scheduling cost);
// it yields to Run only at Sync points that find an earlier proc runnable
// and at blocking primitive operations. This keeps simulation overhead to a
// few coroutine switches per 4 kB page rather than per edge.
type Sim struct {
	ready []*simProc // binary min-heap on (now, seq)
	seq   int64
	live  []*simProc // every proc that has not exited: running, ready or blocked
	cur   *simProc   // the proc Run resumed last
	// End is the largest proc clock observed at completion, i.e. the
	// virtual makespan of the execution. Valid after Run returns.
	End int64
}

// NewSim returns a fresh virtual-time context.
func NewSim() *Sim { return &Sim{} }

// Run executes fn as the root proc at virtual time zero and drives every
// proc, on the caller's goroutine, until all have finished. It panics with a
// diagnostic if all live procs block on each other (a simulated deadlock),
// and a panic inside any proc propagates through next to Run's caller;
// either way the procs still parked are unwound first.
func (s *Sim) Run(name string, fn func(Proc)) {
	s.pushReady(s.newProc(name, fn))
	defer s.unwind()
	for len(s.live) > 0 {
		if len(s.ready) == 0 {
			panic(s.deadlockReport())
		}
		s.cur = s.popReady()
		s.cur.next()
	}
}

// Go starts fn as a new proc whose clock begins at the parent's clock
// (exactly one proc runs at a time, so s.cur is the caller).
func (s *Sim) Go(name string, fn func(Proc)) {
	child := s.newProc(name, fn)
	if s.cur != nil {
		child.now = s.cur.now
	}
	s.pushReady(child)
}

func (s *Sim) newProc(name string, fn func(Proc)) *simProc {
	p := &simProc{sim: s, name: name, slot: len(s.live)}
	s.live = append(s.live, p)
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer p.exit()
		fn(p)
	})
	return p
}

// unwind stops every proc still alive when Run leaves by a deadlock or a
// proc panic, so their coroutines are not leaked: a parked proc unwinds its
// stack with the stopped sentinel (its deferred clean-up runs), one that
// never started is simply released. A completed Run leaves nothing to stop.
func (s *Sim) unwind() {
	for n := len(s.live); n > 0; n = len(s.live) {
		p := s.live[n-1]
		s.live = s.live[:n-1]
		p.stopped = true
		p.stop()
	}
}

// stopped is the panic value that unwinds a proc of an aborted Run.
type stopped struct{}

// exit is deferred at the top frame of every proc. It swallows the stopped
// sentinel (and nothing else); for a proc ending on its own it retires the
// proc from the live set and folds its clock into the makespan.
func (p *simProc) exit() {
	if p.stopped {
		if r := recover(); r != nil && r != (stopped{}) {
			panic(r)
		}
		return
	}
	s := p.sim
	n := len(s.live) - 1
	last := s.live[n]
	s.live[p.slot], last.slot = last, p.slot
	s.live[n] = nil
	s.live = s.live[:n]
	if p.now > s.End {
		s.End = p.now
	}
}

// before is the scheduling order: by clock, then by the sequence number
// handed out when the proc became ready; the tiebreak makes scheduling —
// and therefore the whole simulation — deterministic.
func (p *simProc) before(o *simProc) bool {
	return p.now < o.now || p.now == o.now && p.seq < o.seq
}

func (s *Sim) pushReady(p *simProc) {
	s.seq++
	p.seq = s.seq
	h := append(s.ready, p)
	i := len(h) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !p.before(h[up]) {
			break
		}
		h[i] = h[up]
		i = up
	}
	h[i] = p
	s.ready = h
}

func (s *Sim) popReady() *simProc {
	h := s.ready
	top, n := h[0], len(h)-1
	p := h[n]
	h[n] = nil
	h = h[:n]
	s.ready = h
	if n == 0 {
		return top
	}
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(p) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = p
	return top
}

func (s *Sim) deadlockReport() string {
	var b strings.Builder
	fmt.Fprintf(&b, "exec: simulated deadlock: %d live procs, none runnable\n", len(s.live))
	var lines []string
	for _, p := range s.live {
		lines = append(lines, fmt.Sprintf("  %s (t=%dns) blocked on %s", p.name, p.now, p.blockedOn))
	}
	sort.Strings(lines)
	b.WriteString(strings.Join(lines, "\n"))
	return b.String()
}

// simProc is one simulated thread.
type simProc struct {
	sim  *Sim
	name string
	now  int64
	seq  int64
	ring *trace.Ring

	next  func() (struct{}, bool) // resumes the coroutine; Run's side
	stop  func()                  // releases the coroutine; unwind's side
	yield func(struct{}) bool     // switches back to Run; the proc's side

	slot       int      // index in sim.live
	stopped    bool     // set by unwind: every further Sync or block panics
	blockedOn  string   // what the proc last blocked on, for deadlock reports
	nextWaiter *simProc // link in the waitList the proc is blocked on
}

func (p *simProc) Advance(ns int64)           { p.now += ns }
func (p *simProc) Sleep(ns int64)             { p.now += ns }
func (p *simProc) Now() int64                 { return p.now }
func (p *simProc) Name() string               { return p.name }
func (p *simProc) TraceRing() *trace.Ring     { return p.ring }
func (p *simProc) SetTraceRing(r *trace.Ring) { p.ring = r }

// Sync parks the proc until it holds the minimal clock among runnable
// procs, so that the caller's next shared-state access happens in global
// timestamp order. If the proc is already minimal (ties favour the running
// proc) it returns immediately.
func (p *simProc) Sync() {
	s := p.sim
	if p.stopped {
		panic(stopped{})
	}
	if len(s.ready) == 0 || s.ready[0].now >= p.now {
		return
	}
	s.pushReady(p)
	p.park()
}

// park switches back to Run, returning once Run resumes the proc. The
// caller has put p where a resume can come from: the ready heap or a
// waitList.
func (p *simProc) park() {
	if !p.yield(struct{}{}) {
		panic(stopped{})
	}
}

// waitList is an intrusive FIFO of blocked procs. A proc blocks on one
// thing at a time, so the link lives on the proc and blocking allocates
// nothing.
type waitList struct{ head, tail *simProc }

// block parks p at the tail of w until another proc wakes it; what names
// the wait in deadlock reports.
func (w *waitList) block(p *simProc, what string) {
	p.blockedOn = what
	if w.tail == nil {
		w.head = p
	} else {
		w.tail.nextWaiter = p
	}
	w.tail = p
	p.park()
}

// wakeOne moves the longest-blocked proc, if any, to the ready heap,
// resuming it no earlier than at.
func (w *waitList) wakeOne(at int64) bool {
	p := w.head
	if p == nil {
		return false
	}
	if w.head = p.nextWaiter; w.head == nil {
		w.tail = nil
	}
	p.nextWaiter = nil
	if p.now < at {
		p.now = at
	}
	p.sim.pushReady(p)
	return true
}

// wakeAll wakes every blocked proc in blocking order.
func (w *waitList) wakeAll(at int64) {
	for w.wakeOne(at) {
	}
}

// asSim asserts that a Proc belongs to this Sim.
func (s *Sim) asSim(p Proc) *simProc {
	sp, ok := p.(*simProc)
	if !ok || sp.sim != s {
		panic("exec: proc used with a foreign Sim context")
	}
	return sp
}

// NewWaitGroup returns a virtual-time wait group.
func (s *Sim) NewWaitGroup() WaitGroup { return &simWG{s: s} }

type simWG struct {
	s       *Sim
	count   int
	waiters waitList
}

func (w *simWG) Add(delta int) {
	w.count += delta
	if w.count < 0 {
		panic("exec: negative WaitGroup counter")
	}
}

func (w *simWG) Done(p Proc) {
	sp := w.s.asSim(p)
	sp.Sync()
	w.count--
	if w.count < 0 {
		panic("exec: negative WaitGroup counter")
	}
	if w.count == 0 {
		w.waiters.wakeAll(sp.now)
	}
}

func (w *simWG) Wait(p Proc) {
	sp := w.s.asSim(p)
	sp.Sync()
	if w.count == 0 {
		return
	}
	w.waiters.block(sp, "waitgroup")
}

// NewBarrier returns a virtual-time cyclic barrier: all n procs resume at
// the maximum arrival clock, modeling a parallel phase boundary.
func (s *Sim) NewBarrier(n int) Barrier { return &simBarrier{s: s, n: n} }

type simBarrier struct {
	s       *Sim
	n       int
	arrived int
	maxT    int64
	waiters waitList
}

func (b *simBarrier) Wait(p Proc) {
	sp := b.s.asSim(p)
	sp.Sync()
	if sp.now > b.maxT {
		b.maxT = sp.now
	}
	b.arrived++
	if b.arrived == b.n {
		release := b.maxT
		b.arrived = 0
		b.maxT = 0
		b.waiters.wakeAll(release)
		if sp.now < release {
			sp.now = release
		}
		return
	}
	b.waiters.block(sp, "barrier")
}

// NewResource returns a serially-shared timed resource.
func (s *Sim) NewResource(name string) Resource {
	return &simResource{s: s, name: name}
}

type simResource struct {
	s    *Sim
	name string
	busy int64
}

func (r *simResource) Acquire(p Proc, busy int64) int64 {
	sp := r.s.asSim(p)
	sp.now = r.Schedule(sp, busy)
	return sp.now
}

func (r *simResource) Schedule(p Proc, busy int64) int64 {
	sp := r.s.asSim(p)
	sp.Sync()
	start := r.busy
	if sp.now > start {
		start = sp.now
	}
	r.busy = start + busy
	return r.busy
}

func (r *simResource) BusyUntil() int64 { return r.busy }
