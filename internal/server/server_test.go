package server_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"blaze/gen"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/graph"
	"blaze/internal/server"
	"blaze/internal/session"
	"blaze/internal/ssd"
)

func testCSR(seed uint64, nEdges int) *graph.CSR {
	n := uint32(64 + seed%512)
	r := gen.NewRNG(seed)
	src := make([]uint32, nEdges)
	dst := make([]uint32, nEdges)
	src[0], dst[0] = 0, 1
	for i := 1; i < nEdges; i++ {
		src[i] = uint32(r.Intn(int(n)))
		dst[i] = uint32(r.Intn(int(n)))
	}
	return graph.MustBuild(n, src, dst)
}

// testSession builds a session whose queries' engines go unused: server
// tests drive pure queueing behavior with Advance-based bodies and no graph
// traversal noise.
func testSession(t *testing.T, ctx exec.Context, maxQueries int) *session.Session {
	t.Helper()
	out := engine.FromCSR(ctx, "srv", testCSR(9, 400), 1, ssd.OptaneSSD, nil, nil)
	s, err := session.New(ctx, out, nil, session.Config{Engine: "blaze", MaxQueries: maxQueries})
	if err != nil {
		t.Fatalf("session.New: %v", err)
	}
	return s
}

// advanceBody returns a body that models ns of service time.
func advanceBody(ns int64) session.Body {
	return func(p exec.Proc, q *session.Query) error {
		p.Advance(ns)
		return nil
	}
}

// TestPriorityOrdering: with one worker slot, queued interactive requests
// always dispatch before queued batch requests, FIFO within each class.
func TestPriorityOrdering(t *testing.T) {
	ctx := exec.NewSim()
	sess := testSession(t, ctx, 0)
	srv := server.New(ctx, sess, server.Config{Slots: 1, QueueDepth: 16})
	var order []string
	done := func(o server.Outcome) { order = append(order, o.Name) }
	ctx.Run("main", func(p exec.Proc) {
		srv.Start()
		// A blocker occupies the single slot while the rest queue up.
		blocker := &server.Request{Class: server.Interactive, Name: "blocker",
			Body: advanceBody(1e6), OnDone: done}
		if err := srv.Submit(p, blocker); err != nil {
			t.Errorf("submit blocker: %v", err)
		}
		p.Advance(1) // let the worker take the blocker before the rest arrive
		for _, r := range []*server.Request{
			{Class: server.Batch, Name: "b0", Body: advanceBody(1000), OnDone: done},
			{Class: server.Batch, Name: "b1", Body: advanceBody(1000), OnDone: done},
			{Class: server.Interactive, Name: "i0", Body: advanceBody(1000), OnDone: done},
			{Class: server.Interactive, Name: "i1", Body: advanceBody(1000), OnDone: done},
		} {
			if err := srv.Submit(p, r); err != nil {
				t.Errorf("submit %s: %v", r.Name, err)
			}
		}
		srv.Drain(p)
	})
	want := []string{"blocker", "i0", "i1", "b0", "b1"}
	if len(order) != len(want) {
		t.Fatalf("completed %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order %v, want %v", order, want)
		}
	}
}

// TestRejectOnFull: submissions beyond the queue bound are shed immediately
// with ErrQueueFull while the accepted ones still complete.
func TestRejectOnFull(t *testing.T) {
	ctx := exec.NewSim()
	sess := testSession(t, ctx, 0)
	srv := server.New(ctx, sess, server.Config{Slots: 1, QueueDepth: 2})
	var accepted, rejected int
	ctx.Run("main", func(p exec.Proc) {
		srv.Start()
		if err := srv.Submit(p, &server.Request{Name: "blocker", Body: advanceBody(10e6)}); err != nil {
			t.Errorf("submit blocker: %v", err)
		}
		p.Advance(1) // blocker now in flight; the queue itself is empty
		for i := 0; i < 5; i++ {
			err := srv.Submit(p, &server.Request{Name: "f", Body: advanceBody(1000)})
			switch err {
			case nil:
				accepted++
			case server.ErrQueueFull:
				rejected++
			default:
				t.Errorf("submit: unexpected error %v", err)
			}
		}
		srv.Drain(p)
	})
	if accepted != 2 || rejected != 3 {
		t.Errorf("accepted %d rejected %d, want 2 and 3 (queue depth 2)", accepted, rejected)
	}
	r := srv.Report(1)
	if r.Rejected != 3 || r.Completed != 3 {
		t.Errorf("report rejected=%d completed=%d, want 3 and 3", r.Rejected, r.Completed)
	}
}

// TestDeadlines: a request whose deadline passes while queued is dropped
// without executing; one that completes past its deadline is delivered but
// late, and only on-time completions count toward goodput.
func TestDeadlines(t *testing.T) {
	ctx := exec.NewSim()
	sess := testSession(t, ctx, 0)
	srv := server.New(ctx, sess, server.Config{Slots: 1, QueueDepth: 8})
	outcomes := map[string]server.Outcome{}
	done := func(o server.Outcome) { outcomes[o.Name] = o }
	executed := map[string]bool{}
	body := func(name string, ns int64) session.Body {
		return func(p exec.Proc, q *session.Query) error {
			executed[name] = true
			p.Advance(ns)
			return nil
		}
	}
	ctx.Run("main", func(p exec.Proc) {
		srv.Start()
		srv.Submit(p, &server.Request{Name: "blocker", Body: body("blocker", 1e6), OnDone: done})
		p.Advance(1)
		// Deadline 0.1ms: expires behind the 1ms blocker, must never run.
		srv.Submit(p, &server.Request{Name: "expires", TimeoutNs: 100_000,
			Body: body("expires", 1000), OnDone: done})
		// Deadline 2ms: starts in time (~1ms) but its 5ms body blows it.
		srv.Submit(p, &server.Request{Name: "late", TimeoutNs: 2e6,
			Body: body("late", 5e6), OnDone: done})
		srv.Drain(p)
	})
	if executed["expires"] {
		t.Error("expired request executed; must be dropped while queued")
	}
	if got := outcomes["expires"]; got.Status != server.StatusExpired || got.Err != server.ErrDeadline {
		t.Errorf("expires outcome = %v/%v, want expired/ErrDeadline", got.Status, got.Err)
	}
	if !executed["late"] {
		t.Error("late request never executed; a started request runs to completion")
	}
	if got := outcomes["late"]; got.Status != server.StatusLate {
		t.Errorf("late outcome = %v, want late", got.Status)
	}
	r := srv.Report(1e9)
	if r.Expired != 1 || r.Late != 1 || r.Completed != 2 {
		t.Errorf("report expired=%d late=%d completed=%d, want 1,1,2", r.Expired, r.Late, r.Completed)
	}
	// Goodput counts only the on-time blocker: 1 completion over the 1s window.
	if r.GoodputPerSec != 1 {
		t.Errorf("goodput %.3f/s, want 1 (only on-time completions count)", r.GoodputPerSec)
	}
}

// TestDrain: drain serves the whole backlog, rejects new submissions with
// ErrDraining (distinct from ErrQueueFull), and leaves the session clean.
func TestDrain(t *testing.T) {
	ctx := exec.NewSim()
	sess := testSession(t, ctx, 2)
	srv := server.New(ctx, sess, server.Config{Slots: 4, QueueDepth: 8})
	ctx.Run("main", func(p exec.Proc) {
		srv.Start()
		if srv.Slots() != 2 {
			t.Errorf("slots = %d, want clamped to the session's 2", srv.Slots())
		}
		for i := 0; i < 6; i++ {
			if err := srv.Submit(p, &server.Request{Name: "q", Body: advanceBody(1e5)}); err != nil {
				t.Errorf("submit: %v", err)
			}
		}
		srv.Drain(p)
		if err := srv.Submit(p, &server.Request{Name: "q", Body: advanceBody(1)}); err != server.ErrDraining {
			t.Errorf("submit after drain: %v, want ErrDraining", err)
		}
	})
	r := srv.Report(1)
	if r.Completed != 6 {
		t.Errorf("completed %d of 6 before drain finished", r.Completed)
	}
	if srv.Queued() != 0 || srv.Inflight() != 0 {
		t.Errorf("queued=%d inflight=%d after drain, want 0/0", srv.Queued(), srv.Inflight())
	}
	if sess.Active() != 0 {
		t.Errorf("session active=%d after drain, want 0", sess.Active())
	}
}

// TestSlotsCapConcurrency: the server never holds more live session
// queries than its slots, so the per-query cache quota split never sees
// more than Slots owners.
func TestSlotsCapConcurrency(t *testing.T) {
	ctx := exec.NewSim()
	sess := testSession(t, ctx, 0)
	srv := server.New(ctx, sess, server.Config{Slots: 2, QueueDepth: 16})
	maxActive := 0
	body := func(p exec.Proc, q *session.Query) error {
		if a := srv.Session().Active(); a > maxActive {
			maxActive = a
		}
		p.Advance(1e5)
		return nil
	}
	ctx.Run("main", func(p exec.Proc) {
		srv.Start()
		for i := 0; i < 10; i++ {
			if err := srv.Submit(p, &server.Request{Name: "q", Body: body}); err != nil {
				t.Errorf("submit: %v", err)
			}
		}
		srv.Drain(p)
	})
	if maxActive > 2 {
		t.Errorf("saw %d live queries, slots cap is 2", maxActive)
	}
}

// TestRealDrainNoGoroutineLeak: under the Real backend a full
// start/serve/drain cycle leaves no worker goroutines behind.
func TestRealDrainNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx := exec.NewReal()
	sess := testSession(t, ctx, 0)
	srv := server.New(ctx, sess, server.Config{Slots: 4, QueueDepth: 8})
	var completed int
	var mu sync.Mutex
	ctx.Run("main", func(p exec.Proc) {
		srv.Start()
		for i := 0; i < 16; i++ {
			err := srv.Submit(p, &server.Request{
				Name: "q",
				Body: advanceBody(0),
				OnDone: func(o server.Outcome) {
					mu.Lock()
					completed++
					mu.Unlock()
				},
			})
			if err != nil && err != server.ErrQueueFull {
				t.Errorf("submit: %v", err)
			}
		}
		srv.Drain(p)
	})
	mu.Lock()
	got := completed
	mu.Unlock()
	if got == 0 {
		t.Error("no requests completed under the real backend")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("goroutines grew from %d to %d after drain", before, g)
	}
}
