package exec

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

var updateSchedule = flag.Bool("update-schedule", false, "rewrite testdata/schedule_pin.golden")

// TestSimSchedulePin pins the scheduler's resume order — the (clock, seq)
// tie-break contract — directly rather than through figure CSVs. A seeded
// random program exercises every primitive with small, colliding clock
// increments; each proc appends (name, clock, op) to one log whenever a
// primitive returns control to it, so the log is the global execution order.
// The golden was recorded from the channel-based scheduler this package
// started with; any scheduler must reproduce it at every GOMAXPROCS.
func TestSimSchedulePin(t *testing.T) {
	const golden = "testdata/schedule_pin.golden"
	if *updateSchedule {
		if err := os.WriteFile(golden, []byte(schedulePinProgram(1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		got := schedulePinProgram(1)
		runtime.GOMAXPROCS(prev)
		if got == string(want) {
			continue
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("GOMAXPROCS=%d: schedule diverges at event %d: got %q, want %q", procs, i, gl[i], wl[i])
			}
		}
		t.Fatalf("GOMAXPROCS=%d: schedule has %d events, want %d", procs, len(gl), len(wl))
	}
}

// schedulePinProgram runs the seeded program and returns its event log.
// Every proc draws from its own generator, so the draws do not depend on the
// schedule being pinned.
func schedulePinProgram(seed int64) string {
	const workers, rounds, steps = 6, 3, 12
	var log strings.Builder
	ev := func(c Proc, op string) { fmt.Fprintf(&log, "%s %d %s\n", c.Name(), c.Now(), op) }
	rng := func(id int) *rand.Rand { return rand.New(rand.NewSource(seed*1000 + int64(id))) }

	s := NewSim()
	s.Run("root", func(p Proc) {
		q1 := NewQueue[int](s, 2)
		q2 := NewQueue[int](s, 3)
		dev := s.NewResource("dev")
		bar := s.NewBarrier(workers)
		producers := s.NewWaitGroup()
		producers.Add(workers)
		movers := s.NewWaitGroup()
		movers.Add(3)

		for w := 0; w < workers; w++ {
			id := w
			s.Go(fmt.Sprintf("w%d", id), func(c Proc) {
				r := rng(id)
				for round := 0; round < rounds; round++ {
					for k := 0; k < steps; k++ {
						c.Advance(int64(r.Intn(3)))
						switch r.Intn(6) {
						case 0:
							c.Sync()
							ev(c, "sync")
						case 1:
							dev.Acquire(c, int64(1+r.Intn(4)))
							ev(c, "acquire")
						case 2:
							q1.PushAt(c, id, dev.Schedule(c, int64(1+r.Intn(4))))
							ev(c, "pushat")
						case 3:
							q1.Push(c, id)
							ev(c, "push")
						case 4:
							q1.PushN(c, []int{id, id})
							ev(c, "pushn")
						case 5:
							if round == 1 && k%4 == 0 {
								producers.Add(1)
								s.Go(fmt.Sprintf("w%d.child%d", id, k), func(cc Proc) {
									ev(cc, "start")
									cc.Advance(int64(rng(1000 + 100*id + k).Intn(3)))
									q1.Push(cc, 100+id)
									ev(cc, "push")
									producers.Done(cc)
								})
								ev(c, "go")
							}
						}
					}
					bar.Wait(c)
					ev(c, "barrier")
				}
				producers.Done(c)
			})
		}
		for m := 0; m < 3; m++ {
			id := m
			s.Go(fmt.Sprintf("m%d", id), func(c Proc) {
				r := rng(100 + id)
				buf := make([]int, 1+id%2) // m1 moves pairs
				for {
					n := popUpTo(c, q1, buf)
					if n == 0 {
						break
					}
					ev(c, "popn")
					c.Advance(int64(r.Intn(3)))
					q2.PushN(c, buf[:n])
					ev(c, "pushn")
				}
				movers.Done(c)
			})
		}
		sinks := s.NewWaitGroup()
		sinks.Add(2)
		for k := 0; k < 2; k++ {
			id := k
			s.Go(fmt.Sprintf("sink%d", id), func(c Proc) {
				r := rng(200 + id)
				buf := make([]int, 2)
				for {
					if _, ok := q2.TryPop(c); ok {
						ev(c, "trypop")
					}
					if q2.PopBatch(c, buf) == 0 {
						break
					}
					ev(c, "popbatch")
					c.Advance(int64(r.Intn(4)))
				}
				sinks.Done(c)
			})
		}
		producers.Wait(p)
		ev(p, "producers-done")
		q1.Close()
		movers.Wait(p)
		ev(p, "movers-done")
		q2.Close()
		sinks.Wait(p)
		ev(p, "sinks-done")
	})
	fmt.Fprintf(&log, "end %d\n", s.End)
	return log.String()
}

// TestSimReadyHeapOrder checks the inlined heap against the order it
// implements: procs leave by (clock, seq), whatever order they entered in.
func TestSimReadyHeapOrder(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	s := NewSim()
	for round := 0; round < 200; round++ {
		for n := r.Intn(40); n > 0; n-- {
			s.pushReady(&simProc{now: int64(r.Intn(8))})
		}
		var prev *simProc
		for n := r.Intn(len(s.ready) + 1); n > 0; n-- {
			p := s.popReady()
			if prev != nil && !prev.before(p) {
				t.Fatalf("round %d: popped (%d,%d) after (%d,%d)", round, p.now, p.seq, prev.now, prev.seq)
			}
			prev = p
		}
	}
}

// popUpTo fills buf by one Pop per item until it is full or q is closed and
// drained, and returns the number of items delivered.
func popUpTo(p Proc, q Queue[int], buf []int) int {
	for i := range buf {
		v, ok := q.Pop(p)
		if !ok {
			return i
		}
		buf[i] = v
	}
	return len(buf)
}
