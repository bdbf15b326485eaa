package engine

import (
	"reflect"
	"slices"
	"sync"

	"blaze/internal/bin"
	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/pipeline"
)

// Pool retains the execution state EdgeMap would otherwise rebuild every
// round, in three stocks: closed rounds, bin state per value type, and the
// frontiers handed back by Release. A closed round is a closed
// pipeline.Front — its own IO buffers, queue pair, page lists and readers —
// plus the round's gather output frontiers. Bin state is the whole bin
// Manager — slots, full queue, both halves of every bin parked where the
// last round left them — with its per-proc stagers. Iterative algorithms
// (BFS, PageRank, WCC) call EdgeMap once per round, and without the pool
// every round re-allocates the full IO-buffer budget, all of the bin space
// and one bitmap per gather proc, rebuilds two slots per bin and three
// queues, and builds the frontier it returns from nothing — pure churn,
// since the sizes never change under one owner. With it, and with its owner
// handing back each frontier it is done with, a steady-state round allocates
// nothing: a round still spawns fresh procs, but from bodies, wait groups
// and batches the round and the bin state keep. Each owner of engines
// holds one Pool and threads it through Config: a Runtime, an engine built
// by algo.NewBlaze, a cluster (every machine's EdgeMap draws from it), and a
// session (every query's engine draws from it).
//
// The pool is a wall-clock optimization only. Allocation costs are not
// modeled; a Front's own buffers pass through the same queue operations as
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
// it drew, IO buffers included, until it puts it back, and a taker that
// finds the pool empty allocates fresh state. Rounds and bin state are free
// lists (bin state per value type), so K concurrent takers each reopen
// retained ones once K have been built; a list never holds more entries
// than the peak number of concurrent takers. Rounds are shared by every
// value type: one round's buffers serve an int64 EdgeMap and a float64 one.
// A Front keeps as many buffers as the largest round it stocked, so K
// concurrent takers come to hold K such sets, where buffers pooled apart
// from their Fronts held only the peak concurrent demand; that never
// shrank either, and reaches the same bound once K large rounds overlap.
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
	// rounds holds closed rounds for takeRound.
	rounds []*round
	// perType holds the free list of bin-side state, a *[]*binState[V],
	// keyed by the EdgeMap value type: each instantiation of EdgeMap[V] has
	// its own record layout, so buffers cannot be shared across types.
	perType map[reflect.Type]any
	// spare holds the frontiers handed back by Release, by universe size.
	spare map[uint32][]*frontier.VertexSubset
}

// round is one closed EdgeMap round kept for the next: its storage front
// half, which owns its IO buffers, its gather procs' output frontiers, and
// the value-type-free state its procs run on. The last is rewritten by the
// taker, which holds the round exclusively from takeRound to putRound, and
// read by the procs a round spawns; none of them touches it after its Done.
type round struct {
	fr   *pipeline.Front
	outs []*frontier.VertexSubset

	// sources are the graphs the round reads (the base, then its sealed
	// segments) and spec the front half built over them.
	sources []*Graph
	spec    pipeline.Spec
	// ctx is the context the wait groups belong to: reused once Wait has
	// returned, and made again when a round runs under another context.
	ctx                 exec.Context
	scatterWG, gatherWG exec.WaitGroup
	// scatStats and drains are scatter proc i's counters and the batch its
	// Drain moves buffers through.
	scatStats []Stats
	drains    [][pipeline.ClaimBatch]*pipeline.Buffer
}

// arm readies rd's wait groups for ctx and its per-proc state for
// scatterProcs scatter procs, counters zeroed.
func (rd *round) arm(ctx exec.Context, scatterProcs int) {
	if rd.ctx != ctx {
		rd.ctx, rd.scatterWG, rd.gatherWG = ctx, ctx.NewWaitGroup(), ctx.NewWaitGroup()
	}
	if len(rd.scatStats) < scatterProcs {
		rd.scatStats = make([]Stats, scatterProcs)
		rd.drains = make([][pipeline.ClaimBatch]*pipeline.Buffer, scatterProcs)
	}
	clear(rd.scatStats[:scatterProcs])
}

// gatherFrontiers returns k empty bitmap frontiers over n vertices, one per
// gather proc: rd's own, reset, as far as it holds them over n vertices,
// fresh ones beyond that or in place of any over another count. They stay
// rd's.
func (rd *round) gatherFrontiers(n uint32, k int) []*frontier.VertexSubset {
	if len(rd.outs) < k {
		rd.outs = slices.Grow(rd.outs, k-len(rd.outs))[:k]
	}
	outs := rd.outs[:k]
	for i, f := range outs {
		if f != nil && f.N() == n {
			f.Reset()
		} else {
			outs[i] = frontier.NewBitmap(n)
		}
	}
	return outs
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{
		perType: map[reflect.Type]any{},
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

// takeRound returns a closed round, now the taker's: the last one pl
// holds, or an empty one when it holds none (or is nil).
func (pl *Pool) takeRound() *round {
	var rd *round
	if pl != nil {
		pl.mu.Lock()
		rd = pop(&pl.rounds)
		pl.mu.Unlock()
	}
	if rd == nil {
		rd = new(round)
	}
	return rd
}

// putRound stocks rd, its Front closed and with every proc of its round
// returned, for a later round. The caller must be done with rd, its Front's
// last phase span included: once stocked it is the next taker's. A nil pool
// drops it, and so does any pool a round that never held a Front: stocked,
// it could be drawn instead of one that holds buffers.
func (pl *Pool) putRound(rd *round) {
	if pl == nil || rd.fr == nil {
		return
	}
	clear(rd.sources)
	clear(rd.spec.Sources)
	pl.mu.Lock()
	pl.rounds = append(pl.rounds, rd)
	pl.mu.Unlock()
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

// binState is the pooled bin-side state for one EdgeMap value type: the
// whole Manager of the last clean round, every buffer still parked in its
// slot, the per-scatter-proc stagers bound to it, and the proc bodies typed
// in V. Each body is built once, for its proc index, and serves every call
// the state is armed for: it reads the call's arguments from call, which
// the taker sets before it spawns the procs and clears before it stocks the
// state, and touches nothing after its Done.
type binState[V any] struct {
	bm       *bin.Manager[V]
	stagers  []*bin.Stager[V]
	call     edgeCall[V]
	scatters []func(exec.Proc)
	gathers  []func(exec.Proc)
	// batches[i] is the batch gather proc i drains full bins through.
	batches [][pipeline.ClaimBatch]*bin.Buffer[V]
}

// edgeCall is the EdgeMap call a binState's proc bodies serve.
type edgeCall[V any] struct {
	rd      *round
	g       *Graph
	f       *frontier.VertexSubset
	scatter func(s, d uint32) V
	gather  func(d uint32, v V) bool
	cond    func(d uint32) bool
	output  bool
	cfg     Config
}

// arm readies st's bodies and batches for scatterProcs scatter and
// gatherProcs gather procs, building only those no earlier call built.
func (st *binState[V]) arm(scatterProcs, gatherProcs int) {
	for i := len(st.scatters); i < scatterProcs; i++ {
		st.scatters = append(st.scatters, st.scatterBody(i))
	}
	for i := len(st.gathers); i < gatherProcs; i++ {
		st.gathers = append(st.gathers, st.gatherBody(i))
	}
	if len(st.batches) < gatherProcs {
		st.batches = make([][pipeline.ClaimBatch]*bin.Buffer[V], gatherProcs)
	}
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
	st.call = edgeCall[V]{}
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
