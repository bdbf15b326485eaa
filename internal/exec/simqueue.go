package exec

// simQueue is the virtual-time MPMC queue. Items carry their push
// timestamp: a popper can never observe an item earlier than the virtual
// instant it was produced, which is what makes producer/consumer stalls
// (free IO buffers running out, full bins backing up) visible in virtual
// time exactly as they would be on real hardware.
type simQueue[T any] struct {
	s        *Sim
	items    []timedItem[T]
	head     int
	capacity int
	closed   bool
	poppers  waitList
	pushers  waitList
	// first backs items until a third slot is needed: the one- and two-slot
	// queues every bin owns (2 x BinCount per round) never allocate again.
	first [2]timedItem[T]
}

type timedItem[T any] struct {
	v T
	t int64
}

func newSimQueue[T any](s *Sim, capacity int) *simQueue[T] {
	q := new(simQueue[T])
	q.init(s, capacity)
	return q
}

// init prepares a zero simQueue in place, so NewSlots can build an array of
// them with one allocation.
func (q *simQueue[T]) init(s *Sim, capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	q.s, q.capacity = s, capacity
	q.items = q.first[:0]
}

func (q *simQueue[T]) size() int { return len(q.items) - q.head }

func (q *simQueue[T]) Push(p Proc, v T) bool { return q.PushAt(p, v, 0) }

func (q *simQueue[T]) PushAt(p Proc, v T, at int64) bool {
	sp := q.s.asSim(p)
	sp.Sync()
	for q.size() >= q.capacity && !q.closed {
		q.pushers.block(sp, "queue push (full)")
	}
	if q.closed {
		return false
	}
	t := sp.now
	if at > t {
		t = at
	}
	q.items = append(q.items, timedItem[T]{v, t})
	q.poppers.wakeOne(t)
	return true
}

// PushN pushes every item of vs through the ordinary per-item path: under
// virtual time a batch is defined as len(vs) consecutive pushes, so the
// engine's real-backend batching cannot change simulated figures.
func (q *simQueue[T]) PushN(p Proc, vs []T) bool {
	for _, v := range vs {
		if !q.PushAt(p, v, 0) {
			return false
		}
	}
	return true
}

// PopBatch under virtual time transfers at most one item per call. Draining
// several items at once would bump the popper's clock to the latest item's
// availability before the earlier items were processed, changing the
// deterministic figures; batching is a wall-clock optimization only.
func (q *simQueue[T]) PopBatch(p Proc, dst []T) int {
	if len(dst) == 0 {
		return 0
	}
	v, ok := q.Pop(p)
	if !ok {
		return 0
	}
	dst[0] = v
	return 1
}

func (q *simQueue[T]) Pop(p Proc) (T, bool) {
	sp := q.s.asSim(p)
	sp.Sync()
	for q.size() == 0 && !q.closed {
		q.poppers.block(sp, "queue pop (empty)")
	}
	var zero T
	if q.size() == 0 {
		return zero, false
	}
	return q.take(sp), true
}

func (q *simQueue[T]) TryPop(p Proc) (T, bool) {
	sp := q.s.asSim(p)
	sp.Sync()
	var zero T
	if q.size() == 0 {
		return zero, false
	}
	return q.take(sp), true
}

// take removes the head item, bumping the popper's clock to the item's
// availability time. Callers guarantee the queue is non-empty.
func (q *simQueue[T]) take(sp *simProc) T {
	it := q.items[q.head]
	var zero T
	q.items[q.head].v = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head > 1024 && q.head*2 > len(q.items) {
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
	if it.t > sp.now {
		sp.now = it.t
	}
	q.pushers.wakeOne(sp.now)
	return it.v
}

// Close rejects further pushes and wakes every blocked proc at its own
// clock (no proc clock is below zero).
func (q *simQueue[T]) Close() {
	q.closed = true
	q.poppers.wakeAll(0)
	q.pushers.wakeAll(0)
}

func (q *simQueue[T]) Len() int { return q.size() }

// Reopen puts a closed, drained queue back in the state newSimQueue leaves
// a new one in: open, empty, capacity reset, nobody waiting. An item
// carries its stamp only while queued and a drained queue holds none, so no
// instant of an earlier Run survives into the next.
func (q *simQueue[T]) Reopen(capacity int) {
	if q.size() != 0 || q.poppers.head != nil || q.pushers.head != nil {
		panic("exec: Reopen of a queue still in use")
	}
	if capacity < 1 {
		capacity = 1
	}
	clear(q.items[:cap(q.items)])
	q.items, q.head, q.capacity, q.closed = q.items[:0], 0, capacity, false
}

// A capacity-1 simQueue is the virtual-time Slot: Take and Put are Pop and
// Push under their ownership names. Slots are never closed.
func (q *simQueue[T]) Take(p Proc) T {
	v, _ := q.Pop(p)
	return v
}

func (q *simQueue[T]) Put(p Proc, v T) { q.PushAt(p, v, 0) }

// Renew stamps the held item with p's clock, which is what a Put by p into
// a fresh slot would have stamped it with. No Sync: nobody else is using
// the slot, so there is no other proc to order against.
func (q *simQueue[T]) Renew(p Proc) { q.items[q.head].t = q.s.asSim(p).now }
