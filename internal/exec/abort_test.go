package exec

import (
	"runtime"
	"testing"
	"time"
)

// TestSimAbortLeaksNothing: a Run that leaves by a deadlock or by a proc
// panic must unwind every proc still parked — running its deferred clean-up,
// in which exec primitives no longer work — and release the ones that never
// started, instead of leaking one goroutine each for the life of the process.
func TestSimAbortLeaksNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	cleaned, ranPast := 0, 0
	abort := func(bomb bool) {
		defer func() {
			if recover() == nil {
				t.Error("aborted Run returned without a panic")
			}
		}()
		s := NewSim()
		s.Run("main", func(p Proc) {
			q := NewQueue[int](s, 1)
			wg := s.NewWaitGroup()
			wg.Add(4)
			for i := 0; i < 4; i++ {
				s.Go("stuck", func(c Proc) {
					defer func() {
						cleaned++
						wg.Done(c)
						ranPast++
					}()
					q.Pop(c)
				})
			}
			if bomb {
				p.Advance(10)
				p.Sync() // the four poppers park first
				s.Go("never-started", func(Proc) { ranPast++ })
				panic("boom")
			}
			wg.Wait(p)
		})
	}
	for i := 0; i < 50; i++ {
		abort(i%2 == 1)
	}
	if cleaned != 200 || ranPast != 0 {
		t.Errorf("unwind ran %d deferred clean-ups (want 200) and %d statements past a dead primitive (want 0)", cleaned, ranPast)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after 50 aborted runs, %d before", n, base)
	}
}
