// Package server is the long-running serving front end over a resident
// graph session (ROADMAP item 1): the piece that turns "run N queries
// once" into "run queries forever" with the controls a production service
// needs. FlashGraph frames shared-graph serving of concurrent applications
// as the target deployment; this package adds the missing operational
// layer on top of internal/session:
//
//   - Admission control: a bounded queue in front of the session. A
//     submission that finds the queue full is rejected immediately with
//     ErrQueueFull (open-loop clients see load shedding, not unbounded
//     queueing), and a submission during drain gets ErrDraining.
//   - Priority classes: interactive requests are always dispatched before
//     queued batch requests. Within a class, dispatch is FIFO in arrival
//     order.
//   - Deadlines in model time: a request may carry a relative timeout.
//     One that expires while still queued is dropped without executing
//     (StatusExpired); one that completes past its deadline is delivered
//     but counted late, and only on-time completions count toward goodput.
//   - Bounded concurrency: Slots worker procs execute queries against the
//     session, so live queries never exceed the session's query slots and
//     the per-query cache quota split never degenerates.
//   - Graceful drain: Drain stops admission, lets every queued and
//     in-flight request finish, and joins the workers.
//
// Determinism: the server runs on the exec substrate. Under the Sim
// backend every state transition — admission, dispatch, expiry, completion
// — happens in global virtual-timestamp order (each entry point syncs its
// proc first), so a seeded open-loop workload (internal/loadgen) produces
// a bit-identical latency histogram run after run, making latency-vs-load
// curves a reproducible experiment. Under the Real backend the same
// server, unchanged, serves wall-clock traffic (cmd/blaze-serve).
package server

import (
	"errors"
	"fmt"
	"sync"

	"blaze/internal/exec"
	"blaze/internal/session"
)

// Priority is a request's admission class. Lower values dispatch first.
type Priority int

const (
	// Interactive requests (point lookups, short traversals) are
	// dispatched before any queued batch request.
	Interactive Priority = iota
	// Batch requests (full-graph analytics) run when no interactive
	// request is waiting.
	Batch
	// NumPriorities is the number of admission classes.
	NumPriorities int = iota
)

// String returns the class name used in reports and JSON.
func (c Priority) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case Batch:
		return "batch"
	}
	return fmt.Sprintf("priority%d", int(c))
}

// Admission and execution errors.
var (
	// ErrQueueFull rejects a submission that found the admission queue at
	// its bound. Distinct from ErrDraining so load generators can tell
	// shedding from shutdown.
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrDraining rejects a submission after Drain began.
	ErrDraining = errors.New("server: draining, not accepting requests")
	// ErrDeadline marks a request whose deadline passed while it was
	// still queued; it is dropped without executing.
	ErrDeadline = errors.New("server: deadline exceeded while queued")
)

// Status classifies how a request left the server.
type Status int

const (
	// StatusOK: completed within its deadline (or had none).
	StatusOK Status = iota
	// StatusLate: completed, but past its deadline. Delivered, not goodput.
	StatusLate
	// StatusExpired: deadline passed while queued; never executed.
	StatusExpired
	// StatusFailed: the query body or its construction returned an error.
	StatusFailed
)

// String returns the status name used in reports and JSON.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusLate:
		return "late"
	case StatusExpired:
		return "expired"
	case StatusFailed:
		return "failed"
	}
	return fmt.Sprintf("status%d", int(s))
}

// Request is one unit of admitted work.
type Request struct {
	// Class is the admission priority.
	Class Priority
	// Name labels the request in outcomes (e.g. the query kind).
	Name string
	// Body is the work: it runs on a worker proc against a session query
	// (q.Sys is the request's engine instance).
	Body session.Body
	// TimeoutNs is the relative deadline from admission in model time
	// (virtual ns under Sim, wall ns under Real); 0 means none.
	TimeoutNs int64
	// OnDone, when non-nil, receives the outcome on the worker proc after
	// the request finishes (completed, expired, or failed). It is not
	// called for rejected submissions — Submit's error already told the
	// caller. Keep it cheap; it runs on the serving path.
	OnDone func(Outcome)

	arriveNs   int64
	deadlineNs int64
}

// Outcome is the terminal record of one admitted request.
type Outcome struct {
	Name   string
	Class  Priority
	Status Status
	// Err is the body error (StatusFailed) or ErrDeadline (StatusExpired).
	Err error
	// ArriveNs is the admission instant; StartNs is when a worker picked
	// the request up; EndNs is completion (== StartNs for expired ones).
	ArriveNs, StartNs, EndNs int64
}

// LatencyNs is the request's queue+service latency: admission to the end
// of execution.
func (o Outcome) LatencyNs() int64 { return o.EndNs - o.ArriveNs }

// Config parameterizes a Server.
type Config struct {
	// Slots is the worker count — the live-concurrency cap. 0 takes the
	// session's query slots, or DefaultSlots if the session is unbounded;
	// a value above the session's slots is clamped to them.
	Slots int
	// QueueDepth bounds the admission queue (requests admitted but not
	// yet dispatched; in-flight requests are not counted). 0 means
	// DefaultQueueDepth.
	QueueDepth int
}

// DefaultSlots is the worker count when neither the config nor the
// session bounds concurrency.
const DefaultSlots = 4

// DefaultQueueDepth is the admission-queue bound when the config leaves
// it zero.
const DefaultQueueDepth = 64

// classState is one priority class's queue and accounting.
type classState struct {
	fifo []*Request
	// Counters; see ClassReport for meanings.
	submitted, rejected, expired, failed, completed, late, onTime int64
	// latencies of every delivered completion (on-time and late), in
	// completion order. Bounded by the workload, not the server: reports
	// are computed from the full record so percentiles are exact.
	latencies []int64
}

// Server is the long-running query service over one graph session.
type Server struct {
	ctx  exec.Context
	sess *session.Session
	cfg  Config

	// tokens carries one token per queued request; its capacity equals
	// QueueDepth, and Submit only pushes after reserving a queue slot
	// under mu, so Push never blocks. Workers block on Pop when idle, and
	// Close-and-drain gives graceful shutdown for free.
	tokens exec.Queue[struct{}]
	done   exec.WaitGroup

	mu       sync.Mutex
	started  bool
	draining bool
	npending int
	inflight int
	classes  [NumPriorities]classState
}

// New builds a server over sess. Call Start from inside ctx.Run before
// submitting.
func New(ctx exec.Context, sess *session.Session, cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Slots <= 0 {
		if cfg.Slots = sess.Slots(); cfg.Slots <= 0 {
			cfg.Slots = DefaultSlots
		}
	}
	if max := sess.Slots(); max > 0 && cfg.Slots > max {
		cfg.Slots = max
	}
	return &Server{
		ctx:    ctx,
		sess:   sess,
		cfg:    cfg,
		tokens: exec.NewQueue[struct{}](ctx, cfg.QueueDepth),
		done:   ctx.NewWaitGroup(),
	}
}

// Slots returns the worker count (the live-concurrency cap).
func (s *Server) Slots() int { return s.cfg.Slots }

// QueueDepth returns the admission-queue bound.
func (s *Server) QueueDepth() int { return s.cfg.QueueDepth }

// Session returns the graph session the server executes against.
func (s *Server) Session() *session.Session { return s.sess }

// Start spawns the worker procs. It must be called from a goroutine
// inside ctx.Run (the root proc's body is the usual place) and exactly
// once.
func (s *Server) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		panic("server: Start called twice")
	}
	s.started = true
	s.mu.Unlock()
	s.done.Add(s.cfg.Slots)
	for i := 0; i < s.cfg.Slots; i++ {
		s.ctx.Go(fmt.Sprintf("serve-worker%d", i), s.worker)
	}
}

// Submit offers req for admission from proc p and returns immediately:
// nil when the request was queued, ErrQueueFull or ErrDraining when it
// was shed. The open-loop contract — Submit never blocks the arrival
// process — is what makes rejection rate a measurable output rather than
// backpressure on the generator.
func (s *Server) Submit(p exec.Proc, req *Request) error {
	p.Sync()
	now := p.Now()
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		panic("server: Submit before Start")
	}
	c := s.class(req.Class)
	if s.draining {
		c.rejected++
		s.mu.Unlock()
		return ErrDraining
	}
	if s.npending >= s.cfg.QueueDepth {
		c.rejected++
		s.mu.Unlock()
		return ErrQueueFull
	}
	req.arriveNs = now
	if req.TimeoutNs > 0 {
		req.deadlineNs = now + req.TimeoutNs
	}
	c.submitted++
	c.fifo = append(c.fifo, req)
	s.npending++
	s.mu.Unlock()
	if !s.tokens.Push(p, struct{}{}) {
		// Drain closed the token queue between our check and the push:
		// withdraw the request and report the shutdown.
		s.mu.Lock()
		s.withdraw(req)
		c.submitted--
		c.rejected++
		s.mu.Unlock()
		return ErrDraining
	}
	return nil
}

// class returns the class state, clamping unknown priorities to Batch so
// a bad client cannot index out of range.
func (s *Server) class(pr Priority) *classState {
	if pr < 0 || int(pr) >= NumPriorities {
		pr = Priority(NumPriorities - 1)
	}
	return &s.classes[pr]
}

// withdraw removes req from its class FIFO. Called with mu held.
func (s *Server) withdraw(req *Request) {
	c := s.class(req.Class)
	for i, r := range c.fifo {
		if r == req {
			copy(c.fifo[i:], c.fifo[i+1:])
			c.fifo[len(c.fifo)-1] = nil
			c.fifo = c.fifo[:len(c.fifo)-1]
			s.npending--
			return
		}
	}
}

// Queued returns the number of admitted, not yet dispatched requests.
func (s *Server) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.npending
}

// Inflight returns the number of requests currently executing.
func (s *Server) Inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// Drain stops admission, serves every already-queued request, waits for
// the in-flight ones, and joins the workers. Further Submits return
// ErrDraining. Drain is idempotent only in the sense that the first call
// wins; concurrent second calls panic on the double queue close, so own
// the shutdown path.
func (s *Server) Drain(p exec.Proc) {
	p.Sync()
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.tokens.Close()
	s.done.Wait(p)
}

// worker is one query slot: it dispatches the highest-priority queued
// request, executes it as a session query, and records the outcome, until
// drain closes the token queue and the backlog is served.
func (s *Server) worker(p exec.Proc) {
	for {
		if _, ok := s.tokens.Pop(p); !ok {
			break
		}
		req := s.take(p)
		if req == nil {
			continue
		}
		s.serve(p, req)
	}
	s.done.Done(p)
}

// take dequeues the next request: interactive before batch, FIFO within a
// class. A token was popped first, so a request is normally present.
func (s *Server) take(p exec.Proc) *Request {
	p.Sync()
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.classes {
		fifo := s.classes[c].fifo
		if len(fifo) == 0 {
			continue
		}
		req := fifo[0]
		fifo[0] = nil
		s.classes[c].fifo = fifo[1:]
		s.npending--
		s.inflight++
		return req
	}
	return nil
}

// serve executes one dispatched request and records its outcome.
func (s *Server) serve(p exec.Proc, req *Request) {
	now := p.Now()
	out := Outcome{Name: req.Name, Class: req.Class, ArriveNs: req.arriveNs, StartNs: now}
	if req.deadlineNs > 0 && now > req.deadlineNs {
		// Expired while queued: drop without touching the session.
		out.Status, out.Err, out.EndNs = StatusExpired, ErrDeadline, now
		s.finish(req, out)
		return
	}
	q, err := s.sess.NewQuery()
	if err != nil {
		out.Status, out.Err, out.EndNs = StatusFailed, err, now
		s.finish(req, out)
		return
	}
	err = req.Body(p, q)
	p.Sync()
	out.EndNs = p.Now()
	s.sess.Finish(q)
	switch {
	case err != nil:
		out.Status, out.Err = StatusFailed, err
	case req.deadlineNs > 0 && out.EndNs > req.deadlineNs:
		out.Status = StatusLate
	default:
		out.Status = StatusOK
	}
	s.finish(req, out)
}

// finish records the outcome and notifies the submitter.
func (s *Server) finish(req *Request, out Outcome) {
	s.mu.Lock()
	s.inflight--
	c := s.class(req.Class)
	switch out.Status {
	case StatusExpired:
		c.expired++
	case StatusFailed:
		c.failed++
	case StatusLate:
		c.late++
		c.completed++
		c.latencies = append(c.latencies, out.LatencyNs())
	case StatusOK:
		c.onTime++
		c.completed++
		c.latencies = append(c.latencies, out.LatencyNs())
	}
	s.mu.Unlock()
	if req.OnDone != nil {
		req.OnDone(out)
	}
}
