package engine

import (
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
// pipeline.Front with its own IO buffers, queue pair, page lists and
// readers; the whole bin Manager with its per-proc stagers; the round's
// gather output frontiers; and the bodies, wait groups and batches its
// procs run on. So a warm round whose owner hands back each frontier it is
// done with allocates nothing: it still spawns fresh procs, but from state
// the round keeps. Each owner of engines holds one Pool and threads it
// through Config: a Runtime, an engine built by algo.NewBlaze, a cluster
// (every machine draws from it) and a session (every query draws from it).
// The zero Pool is empty and ready to use, and a call whose Config has no
// Pool runs on an empty one of its own: there is no unpooled path. The
// pool is a wall-clock optimization only: virtual time cannot tell which
// retained state a taker drew, or whether it drew any (DESIGN §6).
//
// EdgeMap takes one round at its start, puts it back at its end, and draws
// the frontier it returns from the spare stock, so the lock is taken three
// times per round (two without output), never per edge or page. Concurrent
// takers are safe: each owns the round it drew, IO buffers included, until
// it puts it back, and one that finds the pool empty builds a fresh round,
// so a list never holds more rounds than the peak number of concurrent
// takers. A Front keeps as many buffers as the largest round it stocked,
// so K concurrent takers come to hold K such sets. Each value type keeps
// rounds of its own: every query in the catalogue propagates float64, so
// sharing buffers across types would serve only a caller that mixes types
// on one owner.
//
// A frontier EdgeMap or VertexMap returns is its caller's; the pool never
// takes it back on its own. Release hands it back once nobody reads it any
// more (algo.Driver does so for the frontiers a traversal leaves behind),
// and a later merged or mapped frontier over as many vertices is built in
// its storage, so the spare stock holds at most as many frontiers as were
// drawn from it.
type Pool struct {
	mu sync.Mutex
	// rounds holds one free list of closed rounds per EdgeMap value type,
	// a *[]*round[V] each: each instantiation of EdgeMap[V] has its own
	// record layout, so bins cannot be shared across types. spare holds
	// the frontiers handed back by Release, of every universe size (one
	// owner's graphs mostly share one).
	rounds []any
	spare  []*frontier.VertexSubset
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

// NewPool returns an empty pool, as new(Pool) does. It stays because the
// benchmark harness builds its pool through it.
func NewPool() *Pool { return new(Pool) }

// pool returns the pool c's calls draw from: c.Pool, or else an empty one
// of the call's own.
func (c Config) pool() *Pool {
	if c.Pool == nil {
		return new(Pool)
	}
	return c.Pool
}

// Release hands back f, a frontier over f.N() vertices that its owner —
// whoever EdgeMap or VertexMap returned it to — will never read again: a
// later round builds its merged or mapped frontier in f's storage. The
// caller must hold the only reference it will use; releasing a frontier
// twice, or one still in use, hands it to two owners.
func (pl *Pool) Release(f *frontier.VertexSubset) {
	if f == nil {
		return
	}
	pl.mu.Lock()
	pl.spare = append(pl.spare, f)
	pl.mu.Unlock()
}

// takeSpare returns the frontier over n vertices released last, now the
// taker's, or nil when the pool holds none.
func (pl *Pool) takeSpare(n uint32) *frontier.VertexSubset {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for i := len(pl.spare) - 1; i >= 0; i-- {
		if f := pl.spare[i]; f.N() == n {
			pl.spare = slices.Delete(pl.spare, i, i+1)
			return f
		}
	}
	return nil
}

// takeRound returns a closed round of value type V, now the taker's: the
// last one pl holds, or an empty one when it holds none.
func takeRound[V any](pl *Pool) *round[V] {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	free := freeRounds[V](pl)
	n := len(*free)
	if n == 0 {
		return new(round[V])
	}
	rd := (*free)[n-1]
	*free = slices.Delete(*free, n-1, n)
	return rd
}

// putRound clears rd's call and stocks rd, its Front closed and with every
// proc of its round returned, for a later round of value type V. The
// caller must be done with rd, its Front's last phase span included: once
// stocked it is the next taker's. A round that never held a Front is
// dropped: stocked, it could be drawn instead of one that holds buffers.
func putRound[V any](pl *Pool, rd *round[V]) {
	if rd.fr == nil {
		return
	}
	rd.g, rd.f, rd.scatter, rd.gather, rd.cond, rd.cfg = nil, nil, nil, nil, nil, Config{}
	clear(rd.sources)
	clear(rd.spec.Sources)
	pl.mu.Lock()
	free := freeRounds[V](pl)
	*free = append(*free, rd)
	pl.mu.Unlock()
}

// freeRounds returns pl's free list of rounds of value type V, made on
// first use. The caller holds pl.mu.
func freeRounds[V any](pl *Pool) *[]*round[V] {
	for _, l := range pl.rounds {
		if free, ok := l.(*[]*round[V]); ok {
			return free
		}
	}
	free := new([]*round[V])
	pl.rounds = append(pl.rounds, free)
	return free
}
