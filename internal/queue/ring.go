// Package queue provides a bounded multi-producer multi-consumer ring queue.
//
// Blaze (SC22, §IV-A and §IV-C) relies on MPMC queues in two places: the
// full_bins queue that moves full bins from scatter threads to gather
// threads, and the pair of free/filled IO buffer queues that move 4 kB page
// buffers between IO threads and computation threads. This package is the
// real-time implementation of those queues; the virtual-time implementation
// lives in internal/exec.
package queue

import "sync"

// Ring is a bounded FIFO queue safe for concurrent use by multiple
// producers and consumers. A closed Ring rejects new pushes but lets
// consumers drain remaining items.
type Ring[T any] struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	buf      []T
	head     int
	size     int
	closed   bool
}

// NewRing returns an empty ring with the given capacity (minimum 1).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	r := &Ring[T]{buf: make([]T, capacity)}
	r.notEmpty.L = &r.mu
	r.notFull.L = &r.mu
	return r
}

// Push appends v, blocking while the ring is full. It reports false if the
// ring was closed before the item could be enqueued.
func (r *Ring[T]) Push(v T) bool {
	r.mu.Lock()
	for r.size == len(r.buf) && !r.closed {
		r.notFull.Wait()
	}
	if r.closed {
		r.mu.Unlock()
		return false
	}
	// head+size is below 2*len(buf), so one conditional subtraction wraps
	// it without a division.
	i := r.head + r.size
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.size++
	r.notEmpty.Signal()
	r.mu.Unlock()
	return true
}

// take removes the oldest item and signals one producer. Requires r.mu held
// and r.size > 0.
func (r *Ring[T]) take() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.size--
	r.notFull.Signal()
	return v
}

// PushN appends all of vs in order under a single lock acquisition per
// chunk of available space, blocking while the ring is full. It reports
// false if the ring was closed before every item was enqueued (a prefix may
// have been delivered).
func (r *Ring[T]) PushN(vs []T) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(vs) > 0 {
		for r.size == len(r.buf) && !r.closed {
			r.notFull.Wait()
		}
		if r.closed {
			return false
		}
		n := len(r.buf) - r.size
		if n > len(vs) {
			n = len(vs)
		}
		tail := r.head + r.size
		if tail >= len(r.buf) {
			tail -= len(r.buf)
		}
		// At most two contiguous runs: up to the end of buf, then from 0.
		k := copy(r.buf[tail:], vs[:n])
		copy(r.buf, vs[k:n])
		r.size += n
		vs = vs[n:]
		if n > 1 {
			r.notEmpty.Broadcast()
		} else {
			r.notEmpty.Signal()
		}
	}
	return true
}

// Pop removes the oldest item, blocking while the ring is empty. It reports
// false once the ring is closed and drained.
func (r *Ring[T]) Pop() (v T, ok bool) {
	r.mu.Lock()
	for r.size == 0 && !r.closed {
		r.notEmpty.Wait()
	}
	if ok = r.size > 0; ok {
		v = r.take()
	}
	r.mu.Unlock()
	return v, ok
}

// PopBatch blocks until at least one item is available (or the ring is
// closed and drained), then drains up to len(dst) items without further
// blocking, all under one lock acquisition. It returns the number of items
// written to dst; 0 means closed and drained.
func (r *Ring[T]) PopBatch(dst []T) int {
	if len(dst) == 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.size == 0 && !r.closed {
		r.notEmpty.Wait()
	}
	if r.size == 0 {
		return 0
	}
	return r.drainLocked(dst)
}

// drainLocked moves up to len(dst) currently-queued items into dst and
// signals producers. Requires r.mu held and r.size > 0.
func (r *Ring[T]) drainLocked(dst []T) int {
	n := r.size
	if n > len(dst) {
		n = len(dst)
	}
	var zero T
	for i := 0; i < n; i++ {
		dst[i] = r.buf[r.head]
		r.buf[r.head] = zero
		if r.head++; r.head == len(r.buf) {
			r.head = 0
		}
	}
	r.size -= n
	if n > 1 {
		r.notFull.Broadcast()
	} else {
		r.notFull.Signal()
	}
	return n
}

// TryPop removes the oldest item without blocking. It reports whether an
// item was returned.
func (r *Ring[T]) TryPop() (v T, ok bool) {
	r.mu.Lock()
	if ok = r.size > 0; ok {
		v = r.take()
	}
	r.mu.Unlock()
	return v, ok
}

// Reopen readies a closed, drained ring for another round as NewRing(capacity)
// would return it: open, empty, with room for capacity items, reusing its
// storage when that is large enough. No goroutine may be using the ring.
func (r *Ring[T]) Reopen(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.size != 0 {
		panic("queue: Reopen of a ring that still holds items")
	}
	if cap(r.buf) < capacity {
		r.buf = make([]T, capacity)
	} else {
		r.buf = r.buf[:capacity]
		clear(r.buf)
	}
	r.head = 0
	r.closed = false
}

// Close marks the ring closed and wakes all blocked producers and
// consumers. Close is idempotent.
func (r *Ring[T]) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	r.notEmpty.Broadcast()
	r.notFull.Broadcast()
}

// Len returns the number of items currently queued.
func (r *Ring[T]) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size
}
