package exec

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestSimPushAtDelaysAvailability: an item stamped in the future (an async
// IO completion) must not be consumable before its timestamp.
func TestSimPushAtDelaysAvailability(t *testing.T) {
	s := NewSim()
	var popAt int64
	s.Run("main", func(p Proc) {
		q := NewQueue[int](s, 4)
		q.PushAt(p, 42, 5000) // completes at t=5000
		v, ok := q.Pop(p)
		if !ok || v != 42 {
			t.Fatal("item lost")
		}
		popAt = p.Now()
	})
	if popAt != 5000 {
		t.Errorf("item consumed at %d, want 5000", popAt)
	}
}

// TestSimPushAtPastIsNow: a stamp earlier than the producer clock must not
// move the item back in time.
func TestSimPushAtPastIsNow(t *testing.T) {
	s := NewSim()
	s.Run("main", func(p Proc) {
		p.Advance(1000)
		q := NewQueue[int](s, 4)
		q.PushAt(p, 1, 10) // stale completion stamp
		q.Pop(p)
		if p.Now() != 1000 {
			t.Errorf("pop moved clock to %d, want 1000", p.Now())
		}
	})
}

// TestSimScheduleDoesNotBlock: Schedule extends the horizon without
// advancing the caller — the AIO submission semantics the IO procs rely on.
func TestSimScheduleDoesNotBlock(t *testing.T) {
	s := NewSim()
	s.Run("main", func(p Proc) {
		res := s.NewResource("dev")
		d1 := res.Schedule(p, 100)
		d2 := res.Schedule(p, 100)
		if p.Now() != 0 {
			t.Errorf("Schedule advanced the caller to %d", p.Now())
		}
		if d1 != 100 || d2 != 200 {
			t.Errorf("completions = %d,%d, want 100,200", d1, d2)
		}
		// A later synchronous Acquire queues behind the scheduled work.
		if done := res.Acquire(p, 50); done != 250 {
			t.Errorf("Acquire completed at %d, want 250", done)
		}
	})
}

// TestSimMixedScheduleAndQueue: the canonical IO pattern — schedule, push
// with completion stamp, consumer sees device-paced availability.
func TestSimMixedScheduleAndQueue(t *testing.T) {
	s := NewSim()
	var consumed []int64
	s.Run("main", func(p Proc) {
		res := s.NewResource("dev")
		q := NewQueue[int](s, 8)
		wg := s.NewWaitGroup()
		wg.Add(2)
		s.Go("io", func(io Proc) {
			for i := 0; i < 5; i++ {
				done := res.Schedule(io, 1000)
				q.PushAt(io, i, done)
			}
			q.Close()
			wg.Done(io)
		})
		s.Go("consumer", func(c Proc) {
			for {
				_, ok := q.Pop(c)
				if !ok {
					break
				}
				consumed = append(consumed, c.Now())
			}
			wg.Done(c)
		})
		wg.Wait(p)
	})
	want := []int64{1000, 2000, 3000, 4000, 5000}
	for i, at := range consumed {
		if at != want[i] {
			t.Errorf("item %d consumed at %d, want %d", i, at, want[i])
		}
	}
}

// TestSimProcNames: names flow into deadlock diagnostics.
func TestSimDeadlockNamesBlockedProcs(t *testing.T) {
	defer func() {
		r := recover()
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "stuck-consumer") || !strings.Contains(msg, "queue pop") {
			t.Errorf("diagnostic %q lacks proc name or blocking site", msg)
		}
	}()
	s := NewSim()
	s.Run("main", func(p Proc) {
		q := NewQueue[int](s, 1)
		wg := s.NewWaitGroup()
		wg.Add(1)
		s.Go("stuck-consumer", func(c Proc) {
			q.Pop(c)
			wg.Done(c)
		})
		wg.Wait(p)
	})
}

// TestSimEndIsMakespan: Sim.End must reflect the last proc to finish, not
// the root proc.
func TestSimEndIsMakespan(t *testing.T) {
	s := NewSim()
	s.Run("main", func(p Proc) {
		s.Go("slow", func(c Proc) { c.Advance(9999) })
		p.Advance(5)
	})
	if s.End != 9999 {
		t.Errorf("Sim.End = %d, want 9999", s.End)
	}
}

// TestSimNestedSpawn: procs spawned by procs inherit the spawner's clock.
func TestSimNestedSpawn(t *testing.T) {
	s := NewSim()
	var grandchild int64
	s.Run("main", func(p Proc) {
		wg := s.NewWaitGroup()
		wg.Add(1)
		s.Go("child", func(c Proc) {
			c.Advance(100)
			wg2 := s.NewWaitGroup()
			wg2.Add(1)
			s.Go("grandchild", func(g Proc) {
				grandchild = g.Now()
				wg2.Done(g)
			})
			wg2.Wait(c)
			wg.Done(c)
		})
		wg.Wait(p)
	})
	if grandchild != 100 {
		t.Errorf("grandchild started at %d, want 100", grandchild)
	}
}

// TestRealQueuePushAt: the Real backend treats PushAt as Push.
func TestRealQueuePushAt(t *testing.T) {
	r := NewReal()
	r.Run("main", func(p Proc) {
		q := NewQueue[string](r, 2)
		q.PushAt(p, "x", 1<<60)
		v, ok := q.Pop(p)
		if !ok || v != "x" {
			t.Error("PushAt item lost under Real backend")
		}
	})
}

// TestRealScheduleReturnsCompletion under wall clock.
func TestRealScheduleReturnsCompletion(t *testing.T) {
	r := NewReal()
	r.Run("main", func(p Proc) {
		res := r.NewResource("dev")
		d1 := res.Schedule(p, 1000)
		d2 := res.Schedule(p, 1000)
		if d2 <= d1 {
			t.Error("Schedule completions not monotone")
		}
		if res.BusyUntil() != d2 {
			t.Error("BusyUntil != last completion")
		}
	})
}

// TestProcName round-trips the debug name.
func TestProcName(t *testing.T) {
	s := NewSim()
	s.Run("alpha", func(p Proc) {
		if p.Name() != "alpha" {
			t.Errorf("Name = %q", p.Name())
		}
	})
	r := NewReal()
	r.Run("beta", func(p Proc) {
		if p.Name() != "beta" {
			t.Errorf("Name = %q", p.Name())
		}
	})
}

// TestSleepBlocksForModelTime: Sleep moves the proc's own clock by at
// least ns on either backend — exactly ns under Sim, where it is a clock
// jump that costs no host time, and by really waiting under Real, where
// Advance would have been a no-op.
func TestSleepBlocksForModelTime(t *testing.T) {
	const ns = int64(2 * time.Millisecond)
	s := NewSim()
	s.Run("main", func(p Proc) {
		p.Advance(100)
		p.Sleep(ns)
		if p.Now() != 100+ns {
			t.Errorf("sim: Now = %d after Sleep(%d) at t=100", p.Now(), ns)
		}
	})
	if s.End != 100+ns {
		t.Errorf("sim: makespan %d, want %d", s.End, 100+ns)
	}
	NewReal().Run("main", func(p Proc) {
		before := p.Now()
		p.Sleep(ns)
		if got := p.Now() - before; got < ns {
			t.Errorf("real: Sleep(%d) returned after %d ns", ns, got)
		}
	})
}

// TestSimProcPanicPropagates: a panic inside any proc must surface on the
// Run caller's goroutine (like the engine's config validation), not crash
// the process from an unrecoverable goroutine.
func TestSimProcPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "boom") {
			t.Errorf("expected boom panic, got %v", r)
		}
	}()
	s := NewSim()
	s.Run("main", func(p Proc) {
		s.Go("bomber", func(c Proc) {
			panic("boom")
		})
		wg := s.NewWaitGroup()
		wg.Add(1)
		wg.Wait(p) // never released; the bomber's panic must surface first
	})
}
