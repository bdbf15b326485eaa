package queue

import (
	"sync"
	"testing"
)

// TestPushNPopBatchOrder: a batch push followed by batch pops preserves
// FIFO order across wrap-around.
func TestPushNPopBatchOrder(t *testing.T) {
	r := NewRing[int](5)
	for round := 0; round < 3; round++ { // wrap the ring several times
		in := []int{round * 10, round*10 + 1, round*10 + 2, round*10 + 3}
		done := make(chan struct{})
		go func() {
			defer close(done)
			if !r.PushN(in) {
				t.Error("PushN on open ring returned false")
			}
		}()
		dst := make([]int, len(in))
		for got := 0; got < len(in); {
			n := r.PopBatch(dst[got:])
			if n == 0 {
				t.Fatalf("PopBatch found the open ring closed after %d items", got)
			}
			got += n
		}
		<-done
		for i, v := range dst {
			if v != in[i] {
				t.Fatalf("round %d: dst[%d] = %d, want %d", round, i, v, in[i])
			}
		}
	}
}

// TestPushNBlocksUntilSpace: a batch larger than the capacity is delivered
// in chunks as consumers free space.
func TestPushNBlocksUntilSpace(t *testing.T) {
	r := NewRing[int](2)
	in := make([]int, 10)
	for i := range in {
		in[i] = i
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if !r.PushN(in) {
			t.Error("PushN returned false")
		}
	}()
	for i := 0; i < len(in); i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("Pop #%d = (%d, %v), want (%d, true)", i, v, ok, i)
		}
	}
	wg.Wait()
}

// TestPopBatchDrainsAvailable: PopBatch returns everything queued up to the
// destination size without blocking for more.
func TestPopBatchDrainsAvailable(t *testing.T) {
	r := NewRing[int](8)
	r.PushN([]int{1, 2, 3})
	dst := make([]int, 8)
	if n := r.PopBatch(dst); n != 3 {
		t.Fatalf("PopBatch = %d, want 3", n)
	}
	if dst[0] != 1 || dst[1] != 2 || dst[2] != 3 {
		t.Fatalf("PopBatch contents %v", dst[:3])
	}
	// A capped destination takes only what fits.
	r.PushN([]int{4, 5, 6})
	if n := r.PopBatch(dst[:2]); n != 2 {
		t.Fatalf("capped PopBatch = %d, want 2", n)
	}
	if v, ok := r.Pop(); !ok || v != 6 {
		t.Fatalf("leftover = (%d, %v), want (6, true)", v, ok)
	}
}

// TestBatchClose: close-and-drain semantics hold for the batch operations.
func TestBatchClose(t *testing.T) {
	r := NewRing[int](4)
	r.PushN([]int{1, 2})
	r.Close()
	if r.PushN([]int{3}) {
		t.Error("PushN on closed ring returned true")
	}
	dst := make([]int, 4)
	if n := r.PopBatch(dst); n != 2 {
		t.Fatalf("PopBatch after close = %d, want 2 (drain)", n)
	}
	if n := r.PopBatch(dst); n != 0 {
		t.Fatalf("PopBatch on drained closed ring = %d, want 0", n)
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("Pop on drained closed ring delivered an item")
	}
}

// TestBatchConcurrent hammers the batch paths from multiple producers and
// consumers and checks conservation of items (run with -race).
func TestBatchConcurrent(t *testing.T) {
	const producers, consumers, perProducer = 4, 4, 2000
	r := NewRing[int](16)
	var pwg, cwg sync.WaitGroup
	var mu sync.Mutex
	seen := make(map[int]int)
	for pr := 0; pr < producers; pr++ {
		pwg.Add(1)
		go func(pr int) {
			defer pwg.Done()
			batch := make([]int, 0, 8)
			for i := 0; i < perProducer; i++ {
				batch = append(batch, pr*perProducer+i)
				if len(batch) == cap(batch) || i == perProducer-1 {
					if !r.PushN(batch) {
						t.Error("PushN failed on open ring")
						return
					}
					batch = batch[:0]
				}
			}
		}(pr)
	}
	for co := 0; co < consumers; co++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			dst := make([]int, 8)
			for {
				n := r.PopBatch(dst)
				if n == 0 {
					return
				}
				mu.Lock()
				for _, v := range dst[:n] {
					seen[v]++
				}
				mu.Unlock()
			}
		}()
	}
	pwg.Wait()
	r.Close()
	cwg.Wait()
	if len(seen) != producers*perProducer {
		t.Fatalf("saw %d distinct items, want %d", len(seen), producers*perProducer)
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("item %d delivered %d times", v, c)
		}
	}
}

// BenchmarkRingBatch compares per-item and batched transfer through a
// producer/consumer pair; the batch variants must allocate nothing and
// acquire the lock ~batch-size times less often.
func BenchmarkRingBatch(b *testing.B) {
	run := func(b *testing.B, batch int) {
		b.ReportAllocs()
		r := NewRing[int](256)
		done := make(chan struct{})
		go func() {
			defer close(done)
			dst := make([]int, batch)
			for {
				if batch == 1 {
					if _, ok := r.Pop(); !ok {
						return
					}
				} else if r.PopBatch(dst) == 0 {
					return
				}
			}
		}()
		if batch == 1 {
			for i := 0; i < b.N; i++ {
				r.Push(i)
			}
		} else {
			buf := make([]int, batch)
			for i := 0; i < b.N; i += batch {
				r.PushN(buf)
			}
		}
		r.Close()
		<-done
	}
	b.Run("item", func(b *testing.B) { run(b, 1) })
	b.Run("batch8", func(b *testing.B) { run(b, 8) })
	b.Run("batch64", func(b *testing.B) { run(b, 64) })
}
