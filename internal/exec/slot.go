package exec

import "sync"

// Slot is an ownership cell for one value: whoever Takes the value owns it
// exclusively until it Puts one back. It is the hand-off online binning
// makes once per staging flush (a bin's active buffer) and once per full
// buffer (a bin's spare), so under the Real backend it is one lock word
// beside the value rather than a queue. Cells are not padded, by design: the
// slots of two to four neighbouring bins share a cache line (see realSlot).
//
// A slot starts empty. Put on a slot that already holds a value is a bug:
// it crashes under Real and blocks forever under Sim.
type Slot[T any] interface {
	// Take removes the value, blocking while the slot is empty.
	Take(p Proc) T
	// Put fills the empty slot and wakes one blocked taker.
	Put(p Proc, v T)
	// Renew re-offers the value the slot holds as if p had Put it just now:
	// the next Take neither waits for nor inherits the clock of the Put that
	// stored it. Whoever keeps full slots from one Run to the next calls it,
	// because a Sim Run restarts every clock at zero and a value still
	// stamped by the previous Run would carry its taker forward to that
	// Run's end. The slot must be full and no other proc may be using it.
	// Real has no stamp to refresh.
	Renew(p Proc)
}

// NewSlots returns n empty slots bound to ctx's backend, backed by one
// contiguous array. Under Sim a slot is a capacity-1 virtual-time queue —
// the same Sync, item timestamp and wake order as NewQueue(ctx, 1) — so a
// caller's model clocks do not depend on which of the two it uses.
func NewSlots[T any](ctx Context, n int) []Slot[T] {
	out := make([]Slot[T], n)
	switch c := ctx.(type) {
	case *Real:
		cells := make([]realSlot[T], n)
		for i := range cells {
			cells[i].mu.Lock()
			out[i] = &cells[i]
		}
	case *Sim:
		cells := make([]simQueue[T], n)
		for i := range cells {
			cells[i].init(c, 1)
			out[i] = &cells[i]
		}
	default:
		panic("exec: unknown Context implementation")
	}
	return out
}

// realSlot is a mutex used as a binary semaphore, plus the value it guards:
// the mutex is held exactly while the slot is empty, so Take is Lock and
// Put is Unlock (Go allows unlocking from another goroutine), one atomic
// operation each when uncontended, and a blocked taker parks in the
// runtime's semaphore.
//
// Cells are laid out back to back, 16 to 32 bytes each, so neighbours share
// a cache line. Giving each its own line was measured and bought nothing
// (pr_dense, ten alternating pairs: 1190 vs 1167 ms, 6 of 10, inside either
// side's quartiles): a flush picks its bin by dst % binCount, so with two
// scatter procs the last writer of a line is the other core about as often
// either way, and padding triples the footprint.
type realSlot[T any] struct {
	mu sync.Mutex
	v  T
}

func (s *realSlot[T]) Take(p Proc) T {
	s.mu.Lock()
	return s.v
}

func (s *realSlot[T]) Put(p Proc, v T) {
	s.v = v
	s.mu.Unlock()
}

func (s *realSlot[T]) Renew(p Proc) {}
