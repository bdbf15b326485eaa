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
// round, in two stocks: closed rounds, one free list per value type, and
// the frontiers handed back by Release. A closed round holds a closed
// pipeline.Front (its own IO buffers, queue pair, page lists and readers);
// the whole bin Manager (slots, full queue, both halves of every bin parked
// where the last round left them) with its per-proc stagers; the round's
// gather output frontiers; and the bodies, wait groups and batches its
// procs run on. Iterative algorithms (BFS, PageRank, WCC) call EdgeMap
// once per round, and without the pool every round re-allocates the full
// IO-buffer budget, all of the bin space and one bitmap per gather proc,
// rebuilds two slots per bin and three queues, and builds the frontier it
// returns from nothing — pure churn, since the sizes never change under one
// owner. With it, and with its owner handing back each frontier it is done
// with, a steady-state round allocates nothing: a round still spawns fresh
// procs, but from state the round keeps. Each owner of engines holds one
// Pool and threads it through Config: a Runtime, an engine built by
// algo.NewBlaze, a cluster (every machine's EdgeMap draws from it), and a
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
// Ownership discipline: EdgeMap takes one round out of the pool at its
// start and puts it back at its end, and draws the frontier it returns
// from the spare stock, so the pool's lock is taken three times per round
// (two without output), never on the per-edge or per-page path. Concurrent
// EdgeMap calls on one pool are safe: each taker owns the round it drew,
// IO buffers included, until it puts it back, and a taker that finds the
// pool empty builds a fresh one. Rounds are free lists per value type, so K
// concurrent takers of one type each reopen retained rounds once K have
// been built; a list never holds more rounds than the peak number of
// concurrent takers. An EdgeMap of another value type keeps rounds of its
// own, IO buffers included: every query in the catalogue propagates
// float64, so sharing buffers across types would serve only a caller that
// mixes types on one owner. A Front keeps as many buffers as the largest
// round it stocked, so K concurrent takers come to hold K such sets.
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
	// rounds holds the free list of closed rounds, a *[]*round[V], keyed
	// by the EdgeMap value type: each instantiation of EdgeMap[V] has its
	// own record layout, so bins cannot be shared across types.
	rounds map[reflect.Type]any
	// spare holds the frontiers handed back by Release, by universe size.
	spare map[uint32][]*frontier.VertexSubset
}

// round is one closed EdgeMap round of value type V kept for the next: its
// storage front half, which owns its IO buffers; the whole bin Manager of
// its last clean round, every buffer still parked in its slot, and the
// per-scatter-proc stagers bound to it; its gather procs' output
// frontiers; and what its procs run on. Each proc body is built once, for
// its proc index, and serves every call the round runs: it reads the
// call's arguments from the round, which the taker writes after takeRound
// and clears in putRound, and touches nothing after its Done.
type round[V any] struct {
	fr      *pipeline.Front
	bm      *bin.Manager[V]
	stagers []*bin.Stager[V]
	outs    []*frontier.VertexSubset

	// The call the round runs.
	g       *Graph
	f       *frontier.VertexSubset
	scatter func(s, d uint32) V
	gather  func(d uint32, v V) bool
	cond    func(d uint32) bool
	output  bool
	cfg     Config

	// sources are the graphs the round reads (the base, then its sealed
	// segments) and spec the front half built over them.
	sources []*Graph
	spec    pipeline.Spec
	// ctx is the context the wait groups belong to: reused once Wait has
	// returned, and made again when a round runs under another context.
	ctx                 exec.Context
	scatterWG, gatherWG exec.WaitGroup
	scatters, gathers   []func(exec.Proc)
	// scatStats and drains are scatter proc i's counters and the batch its
	// Drain moves buffers through; batches[i] is the batch gather proc i
	// drains full bins through.
	scatStats []Stats
	drains    [][pipeline.ClaimBatch]*pipeline.Buffer
	batches   [][pipeline.ClaimBatch]*bin.Buffer[V]
}

// openBins readies rd's bins for a round under ctx: the Manager it holds
// when that was built under the same ctx with the same cfg, otherwise — a
// fresh round, a failed last round, or a mismatch, which is discarded — a
// fresh primed one. Either way it carries one stager per scatter proc.
func (rd *round[V]) openBins(ctx exec.Context, p exec.Proc, cfg bin.Config, scatterProcs int) {
	if rd.bm == nil || !rd.bm.Reopen(ctx, p, cfg) {
		rd.bm, rd.stagers = bin.NewManager[V](ctx, cfg), rd.stagers[:0]
		rd.bm.Prime(p)
	}
	for len(rd.stagers) < scatterProcs {
		rd.stagers = append(rd.stagers, rd.bm.NewStager())
	}
}

// arm readies rd's wait groups for ctx, and its bodies, counters (zeroed)
// and batches for scatterProcs scatter and gatherProcs gather procs,
// building only those no earlier call built.
func (rd *round[V]) arm(ctx exec.Context, scatterProcs, gatherProcs int) {
	if rd.ctx != ctx {
		rd.ctx, rd.scatterWG, rd.gatherWG = ctx, ctx.NewWaitGroup(), ctx.NewWaitGroup()
	}
	for i := len(rd.scatters); i < scatterProcs; i++ {
		rd.scatters = append(rd.scatters, rd.scatterBody(i))
	}
	for i := len(rd.gathers); i < gatherProcs; i++ {
		rd.gathers = append(rd.gathers, rd.gatherBody(i))
	}
	if len(rd.scatStats) < scatterProcs {
		rd.scatStats = make([]Stats, scatterProcs)
		rd.drains = make([][pipeline.ClaimBatch]*pipeline.Buffer, scatterProcs)
	}
	clear(rd.scatStats[:scatterProcs])
	if len(rd.batches) < gatherProcs {
		rd.batches = make([][pipeline.ClaimBatch]*bin.Buffer[V], gatherProcs)
	}
}

// gatherFrontiers returns k empty bitmap frontiers over n vertices, one per
// gather proc: rd's own, reset, as far as it holds them over n vertices,
// fresh ones beyond that or in place of any over another count. They stay
// rd's.
func (rd *round[V]) gatherFrontiers(n uint32, k int) []*frontier.VertexSubset {
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
		rounds: map[reflect.Type]any{},
		spare:  map[uint32][]*frontier.VertexSubset{},
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

// takeRound returns a closed round of value type V, now the taker's: the
// last one pl holds, or an empty one when it holds none (or is nil).
func takeRound[V any](pl *Pool) *round[V] {
	var rd *round[V]
	if pl != nil {
		key := reflect.TypeFor[V]()
		pl.mu.Lock()
		if free, _ := pl.rounds[key].(*[]*round[V]); free != nil {
			rd = pop(free)
		}
		pl.mu.Unlock()
	}
	if rd == nil {
		rd = new(round[V])
	}
	return rd
}

// putRound clears rd's call and stocks rd, its Front closed and with every
// proc of its round returned, for a later round of value type V. The
// caller must be done with rd, its Front's last phase span included: once
// stocked it is the next taker's. A nil pool drops it, and so does any pool
// a round that never held a Front: stocked, it could be drawn instead of
// one that holds buffers.
func putRound[V any](pl *Pool, rd *round[V]) {
	if pl == nil || rd.fr == nil {
		return
	}
	rd.g, rd.f, rd.scatter, rd.gather, rd.cond, rd.cfg = nil, nil, nil, nil, nil, Config{}
	clear(rd.sources)
	clear(rd.spec.Sources)
	key := reflect.TypeFor[V]()
	pl.mu.Lock()
	free, _ := pl.rounds[key].(*[]*round[V])
	if free == nil {
		free = new([]*round[V])
		pl.rounds[key] = free
	}
	*free = append(*free, rd)
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
