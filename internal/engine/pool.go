package engine

import (
	"reflect"
	"sync"

	"blaze/internal/bin"
	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/pipeline"
)

// Pool retains the execution state EdgeMap would otherwise rebuild every
// round: IO buffers, the storage front half's queue pair, page lists and
// readers (a whole closed pipeline.Front), the whole bin Manager — slots,
// full queue, both halves of every bin parked where the last round left
// them — with its per-proc stagers, the gather procs' output frontiers, and
// the frontiers handed back by Release. Iterative algorithms (BFS,
// PageRank, WCC) call EdgeMap once per round, and without the pool every
// round re-allocates the full IO-buffer budget, all of the bin space and one
// bitmap per gather proc, rebuilds two slots per bin and three queues, and
// builds the frontier it returns from nothing — pure churn, since the sizes
// never change under one owner. With it, and with its owner handing back
// each frontier it is done with, a steady-state round allocates only its
// procs and their closures and wait groups. Each owner of engines holds one
// Pool and threads it through Config: a Runtime, an engine built by
// algo.NewBlaze, a cluster (every machine's EdgeMap draws from it), and a
// session (every query's engine draws from it).
//
// The pool is a wall-clock optimization only. Allocation costs are not
// modeled; recycled IO buffers pass through the same queue operations as
// fresh ones; a reopened queue is indistinguishable from a new one; and
// priming every bin is a run of slot Puts the coordinator makes back to back
// at the clock it already synchronised on when it stocked the IO buffers,
// so no proc can observe them and all they leave behind is that clock on
// every slot — which Manager.Reopen restores on a retained Manager, whose
// slots would otherwise still carry the instants of the previous round
// (and, after a new Sim Run restarted the clocks, carry them into the
// future). Virtual-time figures are the same with or without it, and
// whichever retained state a taker happens to draw.
//
// Ownership discipline: EdgeMap takes entire entries out of the pool at
// round start and returns them at round end, so the pool's lock is touched
// a fixed number of times per round, never on the per-edge or per-page
// path. Concurrent EdgeMap calls on one pool are safe: each taker owns what
// it drew until it puts it back, and a taker that finds the pool empty
// allocates fresh state. Bin state and Fronts are free lists (bin state
// per value type), so K concurrent takers each reopen retained ones once K
// have been built; a list never holds more entries than the peak number of
// concurrent takers. Gather frontiers are a stock per vertex count,
// likewise never more than the peak number of gather procs at once.
//
// A frontier EdgeMap or VertexMap returns is drawn from the spare stock and
// is its caller's; the pool never takes it back on its own. Release hands
// it back once nobody reads it any more (algo.Driver does so for the
// frontiers a traversal leaves behind), and the next merged or mapped
// frontier over as many vertices is built in its storage. A frontier that
// is never released is simply not recycled, so the spare stock holds at
// most as many frontiers as were drawn from it.
type Pool struct {
	mu sync.Mutex
	// ioBufs holds retained IO buffers; all share one backing length, and
	// a size change (different MaxMergePages config) drops the stock.
	ioBufs   []*pipeline.Buffer
	ioBufLen int
	// perType holds the free list of bin-side state, a *[]*binState[V],
	// keyed by the EdgeMap value type: each instantiation of EdgeMap[V] has
	// its own record layout, so buffers cannot be shared across types.
	perType map[reflect.Type]any
	// fronts holds retained gather output frontiers (frontier.NewBitmap
	// subsets) by universe size.
	fronts map[uint32][]*frontier.VertexSubset
	// spare holds the frontiers handed back by Release, by universe size.
	spare map[uint32][]*frontier.VertexSubset
	// husks holds closed storage front halves for pipeline.Reopen.
	husks []*pipeline.Front
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{
		perType: map[reflect.Type]any{},
		fronts:  map[uint32][]*frontier.VertexSubset{},
		spare:   map[uint32][]*frontier.VertexSubset{},
	}
}

// Release hands back f, a frontier over f.N() vertices that its owner —
// whoever EdgeMap or VertexMap returned it to — will never read again: a
// later round builds its merged or mapped frontier in f's storage. The
// caller must hold the only reference it will use; releasing a frontier
// twice, or one still in use, hands it to two owners. A nil pool drops it.
func (pl *Pool) Release(f *frontier.VertexSubset) {
	if pl == nil || f == nil {
		return
	}
	pl.mu.Lock()
	pl.spare[f.N()] = append(pl.spare[f.N()], f)
	pl.mu.Unlock()
}

// takeSpare returns a released frontier over n vertices, now the taker's,
// or nil when the pool holds none (or is nil).
func (pl *Pool) takeSpare(n uint32) *frontier.VertexSubset {
	if pl == nil {
		return nil
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	stock := pl.spare[n]
	f := pop(&stock)
	pl.spare[n] = stock
	return f
}

// takeFront returns a closed Front for pipeline.Reopen, now the taker's,
// or nil when the pool holds none (or is nil).
func (pl *Pool) takeFront() *pipeline.Front {
	if pl == nil {
		return nil
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pop(&pl.husks)
}

// pop removes the last entry of a free list and returns it, or nil when
// the list is empty; the slot it leaves no longer references it.
func pop[T any](list *[]*T) *T {
	n := len(*list)
	if n == 0 {
		return nil
	}
	v := (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	return v
}

// putFront stocks fr, closed and with every proc of its round returned,
// for a later round's pipeline.Reopen. The caller must be done with fr,
// its last phase span included: once stocked it is the next taker's. A nil
// pool or Front is dropped.
func (pl *Pool) putFront(fr *pipeline.Front) {
	if pl == nil || fr == nil {
		return
	}
	pl.mu.Lock()
	pl.husks = append(pl.husks, fr)
	pl.mu.Unlock()
}

// takeFrontiers fills dst with empty bitmap frontiers over n vertices, one
// per gather proc: retained ones, reset, as far as pl holds them, fresh
// ones beyond that (all fresh when pl is nil). Each is the taker's own
// until putFrontiers.
func (pl *Pool) takeFrontiers(dst []*frontier.VertexSubset, n uint32) {
	k := 0
	if pl != nil {
		pl.mu.Lock()
		stock := pl.fronts[n]
		k = min(len(dst), len(stock))
		rest := len(stock) - k
		copy(dst, stock[rest:])
		clear(stock[rest:])
		pl.fronts[n] = stock[:rest]
		pl.mu.Unlock()
	}
	for i := range dst {
		if i < k {
			dst[i].Reset()
		} else {
			dst[i] = frontier.NewBitmap(n)
		}
	}
}

// putFrontiers stocks a round's gather frontiers over n vertices for a
// later round; fs itself stays the caller's. A nil pool drops them.
func (pl *Pool) putFrontiers(n uint32, fs []*frontier.VertexSubset) {
	if pl == nil {
		return
	}
	pl.mu.Lock()
	pl.fronts[n] = append(pl.fronts[n], fs...)
	pl.mu.Unlock()
}

// takeIOBuffers moves up to n retained buffers of bufLen backing bytes
// into dst and returns it. The buffers are copied out, never lent as a
// subslice of the stock, so a later putIOBuffers cannot write over them
// while their taker still reads dst. A pool stocked with a different buffer
// size is emptied: the config that sized those buffers is gone.
func (pl *Pool) takeIOBuffers(dst []*pipeline.Buffer, bufLen, n int) []*pipeline.Buffer {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.ioBufLen != bufLen {
		pl.ioBufs = nil
		pl.ioBufLen = bufLen
		return dst
	}
	k := len(pl.ioBufs) - min(n, len(pl.ioBufs))
	dst = append(dst, pl.ioBufs[k:]...)
	pl.ioBufs = pl.ioBufs[:k]
	return dst
}

// putIOBuffers copies buffers back into the pool after a round; bufs
// itself stays the caller's.
func (pl *Pool) putIOBuffers(bufLen int, bufs []*pipeline.Buffer) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.ioBufLen != bufLen {
		pl.ioBufs = nil
		pl.ioBufLen = bufLen
	}
	pl.ioBufs = append(pl.ioBufs, bufs...)
}

// binState is the pooled bin-side state for one EdgeMap value type: the
// whole Manager of the last clean round, every buffer still parked in its
// slot, and the per-scatter-proc stagers bound to it.
type binState[V any] struct {
	bm      *bin.Manager[V]
	stagers []*bin.Stager[V]
}

// openBins returns the bin state for one round under ctx: the last pooled
// Manager of value type V when it was built under the same ctx with the
// same cfg, otherwise — no pool, nothing stocked, or a mismatch, which is
// discarded — a fresh primed one. Either way it carries one stager per
// scatter proc. The entry leaves the pool; closeBins puts it back.
func openBins[V any](pl *Pool, ctx exec.Context, p exec.Proc, cfg bin.Config, scatterProcs int) *binState[V] {
	var st *binState[V]
	if pl != nil {
		key := reflect.TypeFor[V]()
		pl.mu.Lock()
		if free, _ := pl.perType[key].(*[]*binState[V]); free != nil {
			st = pop(free)
		}
		pl.mu.Unlock()
	}
	if st == nil || !st.bm.Reopen(ctx, p, cfg) {
		st = &binState[V]{bm: bin.NewManager[V](ctx, cfg)}
		st.bm.Prime(p)
	}
	for len(st.stagers) < scatterProcs {
		st.stagers = append(st.stagers, st.bm.NewStager())
	}
	return st
}

// closeBins stocks st for a later round of value type V. Only a round that
// ended cleanly may call it: a failed one drops its partial bins, so its
// buffers and stagers still hold records.
func closeBins[V any](pl *Pool, st *binState[V]) {
	key := reflect.TypeFor[V]()
	pl.mu.Lock()
	free, _ := pl.perType[key].(*[]*binState[V])
	if free == nil {
		free = new([]*binState[V])
		pl.perType[key] = free
	}
	*free = append(*free, st)
	pl.mu.Unlock()
}
