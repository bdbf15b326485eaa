package exec

import (
	"sync/atomic"
	"testing"

	"blaze/internal/trace"
)

// TestWaitGroupReuse: on both backends, a WaitGroup whose Wait has returned
// serves further sets of procs, and each Wait returns only once its own set
// is done. Under Sim each set's Wait resumes at that set's last Done.
func TestWaitGroupReuse(t *testing.T) {
	for _, be := range []struct {
		name string
		mk   func() Context
	}{
		{"sim", func() Context { return NewSim() }},
		{"real", func() Context { return NewReal() }},
	} {
		t.Run(be.name, func(t *testing.T) {
			ctx := be.mk()
			_, sim := ctx.(*Sim)
			var done atomic.Int32
			ctx.Run("main", func(p Proc) {
				wg := ctx.NewWaitGroup()
				for set := 1; set <= 3; set++ {
					start := p.Now()
					wg.Add(set)
					for i := 1; i <= set; i++ {
						ctx.Go("w", func(c Proc) {
							c.Advance(int64(100 * i))
							done.Add(1)
							wg.Done(c)
						})
					}
					wg.Wait(p)
					if got, want := done.Load(), int32(set*(set+1)/2); got != want {
						t.Errorf("set %d: Wait returned after %d Dones, want %d", set, got, want)
					}
					if got := p.Now() - start; sim && got != int64(100*set) {
						t.Errorf("set %d: Wait resumed %d ns after the set started, want %d", set, got, 100*set)
					}
				}
			})
		})
	}
}

// TestSimWaitGroupReuseAcrossRuns: a Sim WaitGroup reused in a later Run
// carries neither a waiter nor a clock from the earlier one. The second
// Run's clocks restart at zero, so a Wait that resumed at the first Run's
// instant, or woke a proc of the first Run, would show here.
func TestSimWaitGroupReuseAcrossRuns(t *testing.T) {
	s := NewSim()
	var wg WaitGroup
	s.Run("first", func(p Proc) {
		wg = s.NewWaitGroup()
		wg.Add(2)
		for _, ns := range []int64{500, 900} {
			s.Go("w", func(c Proc) {
				c.Advance(ns)
				wg.Done(c)
			})
		}
		wg.Wait(p)
		if p.Now() != 900 {
			t.Errorf("first Run: Wait resumed at %d, want 900", p.Now())
		}
	})
	var woke []string
	s.Run("second", func(p Proc) {
		wg.Wait(p) // nothing pending: returns at once
		if p.Now() != 0 {
			t.Errorf("second Run: idle Wait moved the clock to %d", p.Now())
		}
		wg.Add(1)
		s.Go("w", func(c Proc) {
			c.Advance(30)
			wg.Done(c)
		})
		wg.Wait(p)
		woke = append(woke, p.Name())
		if p.Now() != 30 {
			t.Errorf("second Run: Wait resumed at %d, want 30", p.Now())
		}
	})
	if len(woke) != 1 || woke[0] != "second" {
		t.Errorf("procs woken by the second Run's Done: %v, want [second]", woke)
	}
}

// TestRealProcReuse: a proc an exited goroutine left carries neither its
// name nor its trace ring into the next Go.
func TestRealProcReuse(t *testing.T) {
	r := NewReal()
	r.Run("main", func(p Proc) {
		wg := r.NewWaitGroup()
		for i, name := range []string{"first", "second", "third"} {
			wg.Add(1)
			r.Go(name, func(c Proc) {
				if c.Name() != name {
					t.Errorf("proc %d: Name %q, want %q", i, c.Name(), name)
				}
				if c.TraceRing() != nil {
					t.Errorf("proc %d: starts with the trace ring an earlier proc attached", i)
				}
				c.SetTraceRing(&trace.Ring{})
				wg.Done(c)
			})
			wg.Wait(p)
		}
	})
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.free) == 0 {
		t.Fatal("no proc went back on the free list")
	}
	for _, fp := range r.free {
		if fp.name != "" || fp.ring != nil || fp.fn != nil {
			t.Errorf("a free proc still holds name %q, ring %v, body %v", fp.name, fp.ring != nil, fp.fn != nil)
		}
	}
}
