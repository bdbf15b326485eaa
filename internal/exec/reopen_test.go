package exec

import (
	"fmt"
	"maps"
	"strings"
	"sync"
	"testing"
)

// queueScript drives q, of capacity 2, through a pop blocked on an empty
// queue, a push blocked on a full one, a pop still blocked when the queue
// closes and a push after the close, and returns each proc's log: what
// every operation returned and, under Sim, the instant it returned at.
// Sleeps order the procs under both clocks: events whose order decides
// what an operation returns are at least three steps apart.
func queueScript(ctx Context, q Queue[int]) map[string][]string {
	const step = 20_000_000 // 20 ms: wide enough to order goroutines under Real
	_, sim := ctx.(*Sim)
	var mu sync.Mutex
	logs := map[string][]string{}
	log := func(p Proc, op string, v int, ok bool) {
		at := int64(0)
		if sim {
			at = p.Now()
		}
		mu.Lock()
		logs[p.Name()] = append(logs[p.Name()], fmt.Sprintf("%s %d %v @%d", op, v, ok, at))
		mu.Unlock()
	}
	ctx.Run("root", func(p Proc) {
		ctx.Go("c0", func(c Proc) {
			v, ok := q.Pop(c) // empty: blocks until p0's first push
			log(c, "pop", v, ok)
			c.Sleep(4 * step)
			for i := 0; i < 3; i++ { // the first pop wakes p0's blocked push
				v, ok := q.Pop(c)
				log(c, "pop", v, ok)
			}
		})
		ctx.Go("p0", func(c Proc) {
			c.Sleep(step)
			for v := 1; v <= 4; v++ { // 2 and 3 fill the queue; 4 blocks
				log(c, "push", v, q.Push(c, v))
			}
			c.Sleep(11 * step)
			log(c, "push", 5, q.Push(c, 5)) // after the close
		})
		ctx.Go("c1", func(c Proc) {
			c.Sleep(9 * step)
			v, ok := q.Pop(c) // empty until the close wakes it
			log(c, "pop", v, ok)
		})
		p.Sleep(12 * step)
		p.Sync() // under Sim, close no earlier than the others' steps
		q.Close()
	})
	return logs
}

// TestReopenedQueueIsNew: on both backends, the script run on a reopened
// queue — one that ran it before, one built smaller and one built larger —
// logs exactly what it logs on a new queue: the same values, the same
// blocking, the same wake order and, under Sim, the same instants.
func TestReopenedQueueIsNew(t *testing.T) {
	for _, be := range bothBackends {
		t.Run(be.name, func(t *testing.T) {
			ctx := be.mk()
			want := queueScript(ctx, NewQueue[int](ctx, 2))
			values := map[string]string{
				"c0": "[pop 1 true pop 2 true pop 3 true pop 4 true]",
				"p0": "[push 1 true push 2 true push 3 true push 4 true push 5 false]",
				"c1": "[pop 0 false]",
			}
			for name, vs := range values {
				var got []string
				for _, e := range want[name] {
					got = append(got, e[:strings.Index(e, " @")])
				}
				if fmt.Sprint(got) != vs {
					t.Fatalf("%s on a new queue logged %v, want %s", name, want[name], vs)
				}
			}
			again := NewQueue[int](ctx, 2)
			queueScript(ctx, again)
			for _, c := range []struct {
				name string
				q    Queue[int]
			}{
				{"after a run", again},
				{"built with capacity 1", NewQueue[int](ctx, 1)},
				{"built with capacity 8", NewQueue[int](ctx, 8)},
			} {
				c.q.Close()
				c.q.Reopen(2)
				if got := queueScript(ctx, c.q); !maps.EqualFunc(got, want, func(a, b []string) bool {
					return fmt.Sprint(a) == fmt.Sprint(b)
				}) {
					t.Errorf("reopened %s: logged %v, a new queue %v", c.name, got, want)
				}
			}
		})
	}
}

// TestReopenRefusesAQueueInUse: a queue still holding an item is not
// silently emptied by Reopen.
func TestReopenRefusesAQueueInUse(t *testing.T) {
	for _, be := range bothBackends {
		t.Run(be.name, func(t *testing.T) {
			ctx := be.mk()
			ctx.Run("main", func(p Proc) {
				q := NewQueue[int](ctx, 2)
				q.Push(p, 1)
				defer func() {
					if recover() == nil {
						t.Error("Reopen of a queue holding an item did not panic")
					}
				}()
				q.Reopen(2)
			})
		})
	}
}
