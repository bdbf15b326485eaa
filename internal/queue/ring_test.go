package queue

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestRingFIFO(t *testing.T) {
	r := NewRing[int](4)
	for i := 0; i < 4; i++ {
		if !r.Push(i) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.Len() != 4 {
		t.Errorf("Len = %d on a full ring, want 4", r.Len())
	}
	for i := 0; i < 4; i++ {
		v, ok := r.Pop()
		if !ok || v != i {
			t.Fatalf("pop = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if _, ok := r.TryPop(); ok {
		t.Error("TryPop succeeded on empty ring")
	}
}

func TestRingWrapAround(t *testing.T) {
	r := NewRing[int](3)
	next := 0
	for round := 0; round < 10; round++ {
		r.Push(next)
		r.Push(next + 1)
		a, _ := r.Pop()
		b, _ := r.Pop()
		if a != next || b != next+1 {
			t.Fatalf("round %d: got %d,%d want %d,%d", round, a, b, next, next+1)
		}
		next += 2
	}
}

func TestRingCloseSemantics(t *testing.T) {
	r := NewRing[string](4)
	r.Push("a")
	r.Close()
	if r.Push("b") {
		t.Error("Push succeeded after Close")
	}
	if v, ok := r.Pop(); !ok || v != "a" {
		t.Errorf("drain = (%q,%v), want (a,true)", v, ok)
	}
	if _, ok := r.Pop(); ok {
		t.Error("Pop returned ok on closed drained ring")
	}
	r.Close() // idempotent
	if r.Push("c") {
		t.Error("Push succeeded after a second Close")
	}
}

func TestRingCloseWakesBlockedConsumers(t *testing.T) {
	r := NewRing[int](1)
	var wg sync.WaitGroup
	wg.Add(4)
	for i := 0; i < 4; i++ {
		go func() {
			defer wg.Done()
			for {
				if _, ok := r.Pop(); !ok {
					return
				}
			}
		}()
	}
	r.Push(1)
	r.Close()
	wg.Wait() // must not hang
}

func TestRingConcurrentSum(t *testing.T) {
	const producers, perProducer = 8, 1000
	r := NewRing[int](16)
	var wg sync.WaitGroup
	wg.Add(producers)
	for i := 0; i < producers; i++ {
		go func() {
			defer wg.Done()
			for j := 1; j <= perProducer; j++ {
				r.Push(j)
			}
		}()
	}
	go func() {
		wg.Wait()
		r.Close()
	}()
	sum, n := 0, 0
	var cwg sync.WaitGroup
	var mu sync.Mutex
	cwg.Add(4)
	for i := 0; i < 4; i++ {
		go func() {
			defer cwg.Done()
			localSum, localN := 0, 0
			for {
				v, ok := r.Pop()
				if !ok {
					break
				}
				localSum += v
				localN++
			}
			mu.Lock()
			sum += localSum
			n += localN
			mu.Unlock()
		}()
	}
	cwg.Wait()
	wantSum := producers * perProducer * (perProducer + 1) / 2
	if n != producers*perProducer || sum != wantSum {
		t.Errorf("consumed n=%d sum=%d, want n=%d sum=%d", n, sum, producers*perProducer, wantSum)
	}
}

// TestRingPropertySequential checks with random operation sequences that the
// ring behaves exactly like an unbounded-model FIFO restricted by capacity.
func TestRingPropertySequential(t *testing.T) {
	f := func(ops []uint8, capacity uint8) bool {
		c := int(capacity%8) + 1
		r := NewRing[int](c)
		var model []int
		next := 0
		for _, op := range ops {
			if op%2 == 0 {
				// Push blocks on a full ring, so the model decides.
				if len(model) < c {
					if !r.Push(next) {
						return false
					}
					model = append(model, next)
				}
				next++
			} else {
				v, ok := r.TryPop()
				wantOK := len(model) > 0
				if ok != wantOK {
					return false
				}
				if ok {
					if v != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if r.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkRingPushPop(b *testing.B) {
	r := NewRing[int](1024)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Push(1)
			r.Pop()
		}
	})
}

func BenchmarkChannelPushPop(b *testing.B) {
	ch := make(chan int, 1024)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			ch <- 1
			<-ch
		}
	})
}
