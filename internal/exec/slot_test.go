package exec

import (
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
)

var bothBackends = []struct {
	name string
	mk   func() Context
}{
	{"sim", func() Context { return NewSim() }},
	{"real", func() Context { return NewReal() }},
}

// TestSlotsAreIndependent: each of the n slots built together hands back
// exactly what was put into it, again after a second Put.
func TestSlotsAreIndependent(t *testing.T) {
	for _, be := range bothBackends {
		t.Run(be.name, func(t *testing.T) {
			ctx := be.mk()
			ctx.Run("main", func(p Proc) {
				slots := NewSlots[int](ctx, 3)
				for i, s := range slots {
					s.Put(p, 10+i)
				}
				for i, s := range slots {
					if v := s.Take(p); v != 10+i {
						t.Errorf("slot %d: Take = %d, want %d (slots share state?)", i, v, 10+i)
					}
					s.Put(p, 20+i)
					s.Renew(p)
					if v := s.Take(p); v != 20+i {
						t.Errorf("slot %d: Take after Put and Renew = %d, want %d", i, v, 20+i)
					}
				}
			})
		})
	}
}

// TestSimSlotRenewAcrossRuns: a Sim Run restarts the clocks, so a value left
// in a slot by one Run carries that Run's instant into the next — its taker
// jumps there — unless the slot's keeper Renews it, after which it behaves
// as if Put at the keeper's current clock.
func TestSimSlotRenewAcrossRuns(t *testing.T) {
	s := NewSim()
	slots := NewSlots[int](s, 2)
	s.Run("first", func(p Proc) {
		p.Advance(900)
		for i, c := range slots {
			c.Put(p, i)
		}
	})
	s.Run("second", func(p Proc) {
		p.Advance(5)
		slots[0].Renew(p)
		s.Go("taker", func(c Proc) {
			if slots[0].Take(c); c.Now() != 5 {
				t.Errorf("Take of a renewed slot returned at %d, want 5 (the Renew instant)", c.Now())
			}
			if slots[1].Take(c); c.Now() != 900 {
				t.Errorf("Take of a stale slot returned at %d, want 900 (the old Put instant)", c.Now())
			}
		})
	})
}

// TestSlotTakeBlocksUntilPut: a taker of a held slot resumes only after the
// holder's Put, and sees the value that Put stored.
func TestSlotTakeBlocksUntilPut(t *testing.T) {
	for _, be := range bothBackends {
		t.Run(be.name, func(t *testing.T) {
			ctx := be.mk()
			ctx.Run("main", func(p Proc) {
				slot := NewSlots[int](ctx, 1)[0]
				slot.Put(p, 1)
				held := slot.Take(p)
				var released atomic.Bool
				wg := ctx.NewWaitGroup()
				wg.Add(1)
				ctx.Go("taker", func(c Proc) {
					v := slot.Take(c)
					if !released.Load() {
						t.Error("Take returned before the holder's Put")
					}
					if v != 2 {
						t.Errorf("Take = %d, want the value the holder put (2)", v)
					}
					slot.Put(c, v)
					wg.Done(c)
				})
				p.Advance(1000)
				p.Sync() // under Sim the taker runs first and must block
				released.Store(true)
				slot.Put(p, held+1)
				wg.Wait(p)
			})
		})
	}
}

// queueSlot presents a capacity-1 Queue as a Slot: the implementation
// internal/bin used before Slot existed, and the reference the Sim slot's
// clocks are checked against.
type queueSlot[T any] struct{ q Queue[T] }

func (s queueSlot[T]) Take(p Proc) T {
	v, _ := s.q.Pop(p)
	return v
}
func (s queueSlot[T]) Put(p Proc, v T) { s.q.Push(p, v) }
func (s queueSlot[T]) Renew(p Proc)    {}

// TestSimSlotClocksMatchQueue runs one contended script — three procs with
// different paces taking, holding and putting two cells — against Sim slots
// and against capacity-1 Sim queues, and requires the same event log: every
// Take returns at the same virtual instant (a blocked taker's clock jumps
// to the Put that woke it), in the same order, with the same makespan.
func TestSimSlotClocksMatchQueue(t *testing.T) {
	script := func(mk func(s *Sim) []Slot[int]) (log []string, end int64) {
		s := NewSim()
		s.Run("main", func(p Proc) {
			cells := mk(s)
			for i, c := range cells {
				p.Advance(3)
				c.Put(p, i)
			}
			for id, pace := range []int64{7, 11, 50} {
				s.Go(fmt.Sprintf("w%d", id), func(c Proc) {
					for k := 0; k < 6; k++ {
						c.Advance(pace)
						cell := cells[(id+k)%len(cells)]
						v := cell.Take(c)
						log = append(log, fmt.Sprintf("%s take %d @%d", c.Name(), v, c.Now()))
						c.Advance(2 * pace) // hold it: the others pile up behind
						cell.Put(c, v+10)
						log = append(log, fmt.Sprintf("%s put @%d", c.Name(), c.Now()))
					}
				})
			}
		})
		return log, s.End
	}
	slotLog, slotEnd := script(func(s *Sim) []Slot[int] { return NewSlots[int](s, 2) })
	queueLog, queueEnd := script(func(s *Sim) []Slot[int] {
		return []Slot[int]{queueSlot[int]{NewQueue[int](s, 1)}, queueSlot[int]{NewQueue[int](s, 1)}}
	})
	if slotEnd != queueEnd {
		t.Errorf("makespan with slots %d, with capacity-1 queues %d", slotEnd, queueEnd)
	}
	if !reflect.DeepEqual(slotLog, queueLog) {
		t.Errorf("event logs differ:\nslots:  %v\nqueues: %v", slotLog, queueLog)
	}
	// The script must actually block somebody, or it proves nothing: w0 asks
	// for cell 1 at t=34 (put at 27, pace 7) while w1 holds it until t=39.
	if want := "w0 take 11 @39"; !slices.Contains(slotLog, want) {
		t.Errorf("log lacks %q, the blocked taker resuming at the Put instant: %v", want, slotLog)
	}
}

// TestRealSlotStress: N takers hammer a few slots. Ownership must be
// exclusive — the guarded counter is written without atomics, which is what
// -race watches — and no increment may be lost.
func TestRealSlotStress(t *testing.T) {
	const takers, rounds, cells = 8, 5000, 3
	type cell struct {
		n      int // guarded by owning the slot's value
		owners atomic.Int32
	}
	r := NewReal()
	var slots []Slot[*cell]
	r.Run("main", func(p Proc) {
		slots = NewSlots[*cell](r, cells)
		for _, s := range slots {
			s.Put(p, &cell{})
		}
		for i := 0; i < takers; i++ {
			r.Go("taker", func(c Proc) {
				for k := 0; k < rounds; k++ {
					s := slots[(i*7+k)%cells]
					v := s.Take(c)
					if v.owners.Add(1) != 1 {
						t.Error("two procs own one slot's value")
					}
					v.n++
					v.owners.Add(-1)
					s.Put(c, v)
				}
			})
		}
	})
	// Run returned, so every taker has finished and put its cell back.
	r.Run("sum", func(p Proc) {
		total := 0
		for _, s := range slots {
			total += s.Take(p).n
		}
		if total != takers*rounds {
			t.Errorf("counters sum to %d, want %d", total, takers*rounds)
		}
	})
}
