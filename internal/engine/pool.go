package engine

import (
	"reflect"
	"sync"

	"blaze/internal/bin"
	"blaze/internal/exec"
	"blaze/internal/pipeline"
)

// Pool retains the execution state EdgeMap would otherwise rebuild every
// round: IO buffers, and the whole bin Manager — slots, full queue, both
// halves of every bin parked where the last round left them — with its
// per-proc stagers. Iterative algorithms (BFS, PageRank, WCC) call EdgeMap
// once per round, and without the pool every round re-allocates the full
// IO-buffer budget and all of the bin space and rebuilds two slots per bin —
// pure churn, since the sizes never change within one Runtime. A Runtime
// owns one Pool and threads it through Config.
//
// The pool is a wall-clock optimization only. Allocation costs are not
// modeled; recycled IO buffers pass through the same queue operations as
// fresh ones; and priming every bin is a run of slot Puts the coordinator
// makes back to back at the clock it already synchronised on when it
// stocked the IO buffers, so no proc can observe them and all they leave
// behind is that clock on every slot — which Manager.Reopen restores on a
// retained Manager, whose slots would otherwise still carry the instants of
// the previous round (and, after a new Sim Run restarted the clocks, carry
// them into the future). Virtual-time figures are the same with or without
// it.
//
// Ownership discipline: EdgeMap takes entire entries out of the pool at
// round start and returns them at round end, so the pool's lock is touched
// twice per round, never on the per-edge or per-page path. Concurrent
// EdgeMap calls on one Runtime are safe — a taker that finds the pool empty
// simply allocates fresh state.
type Pool struct {
	mu sync.Mutex
	// ioBufs holds retained IO buffers; all share one backing length, and
	// a size change (different MaxMergePages config) drops the stock.
	ioBufs   []*pipeline.Buffer
	ioBufLen int
	// perType holds bin-side state keyed by the EdgeMap value type: each
	// instantiation of EdgeMap[V] has its own record layout, so buffers
	// cannot be shared across types.
	perType map[reflect.Type]any
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{perType: map[reflect.Type]any{}}
}

// takeIOBuffers removes up to n retained buffers of bufLen backing bytes.
// A pool stocked with a different buffer size is emptied: the config that
// sized those buffers is gone.
func (pl *Pool) takeIOBuffers(bufLen, n int) []*pipeline.Buffer {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.ioBufLen != bufLen {
		pl.ioBufs = nil
		pl.ioBufLen = bufLen
		return nil
	}
	if n > len(pl.ioBufs) {
		n = len(pl.ioBufs)
	}
	out := pl.ioBufs[len(pl.ioBufs)-n:]
	pl.ioBufs = pl.ioBufs[:len(pl.ioBufs)-n]
	return out
}

// putIOBuffers returns buffers to the pool after a round.
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

// openBins returns the bin state for one round under ctx: the pooled
// Manager of value type V when it was built under the same ctx with the
// same cfg, otherwise — no pool, nothing stocked, or a mismatch, which is
// discarded — a fresh primed one. Either way it carries one stager per
// scatter proc. The entry leaves the pool; closeBins puts it back.
func openBins[V any](pl *Pool, ctx exec.Context, p exec.Proc, cfg bin.Config, scatterProcs int) *binState[V] {
	var st *binState[V]
	if pl != nil {
		key := reflect.TypeFor[V]()
		pl.mu.Lock()
		st, _ = pl.perType[key].(*binState[V])
		delete(pl.perType, key)
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

// closeBins stocks st for the next round of value type V. Only a round
// that ended cleanly may call it: a failed one drops its partial bins, so
// its buffers and stagers still hold records.
func closeBins[V any](pl *Pool, st *binState[V]) {
	pl.mu.Lock()
	pl.perType[reflect.TypeFor[V]()] = st
	pl.mu.Unlock()
}
