package engine

import (
	"fmt"
	"sync"

	"blaze/internal/bin"
	"blaze/internal/pipeline"
)

// Pool retains the execution state EdgeMap would otherwise rebuild every
// round: IO buffers, bin buffer pairs, and per-proc stagers. Iterative
// algorithms (BFS, PageRank, WCC) call EdgeMap once per round, and without
// the pool every round re-allocates the full IO-buffer budget and both
// halves of every bin — pure GC churn, since the sizes never change within
// one Runtime. A Runtime owns one Pool and threads it through Config.
//
// The pool is a wall-clock optimization only: allocation costs are not
// modeled, and recycled buffers pass through the same queue operations as
// fresh ones, so virtual-time figures are the same with or without it.
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
	perType map[string]any
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{perType: map[string]any{}}
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
// drained bin buffer pairs and the per-scatter-proc stagers.
type binState[V any] struct {
	bufs    []*bin.Buffer[V]
	stagers []*bin.Stager[V]
}

// typeKey names the value type V for the perType map. EdgeMap value types
// are concrete (uint32, float64, ...), so %T of the zero value is unique.
func typeKey[V any]() string {
	var v V
	return fmt.Sprintf("%T", v)
}

// takeBinState removes the pooled bin state for value type V, or returns
// nil when none is stocked.
func takeBinState[V any](pl *Pool) *binState[V] {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	key := typeKey[V]()
	st, _ := pl.perType[key].(*binState[V])
	delete(pl.perType, key)
	return st
}

// putBinState stocks the bin state for value type V for the next round.
func putBinState[V any](pl *Pool, st *binState[V]) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	pl.perType[typeKey[V]()] = st
}
