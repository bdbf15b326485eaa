// Package par runs one pass over an index range as contiguous chunks, one
// goroutine per chunk. It serves the set-up layers — edge-list generation
// (gen) and the CSR build (internal/graph) — whose kernels are written so
// that their output does not depend on how many chunks ran: a pass at any
// GOMAXPROCS is bit-identical to the same kernel run as one chunk.
package par

import (
	"runtime"
	"sync"
)

// MinChunk is the fewest items a chunk is given. A pass over fewer than
// 2·MinChunk items runs as one chunk on the caller's goroutine: below that
// the spawn and the per-chunk state cost more than the second core saves
// (a dynamic graph's seal builds a few thousand edges at a time).
const MinChunk = 1 << 16

// Chunks returns how many chunks a pass over n items runs in: at most
// GOMAXPROCS, each at least MinChunk items, and, when every chunk keeps
// perChunk words of private state (a degree histogram), few enough that the
// chunks' state together stays within n words.
func Chunks(n, perChunk int64) int {
	k := min(int64(runtime.GOMAXPROCS(0)), n/MinChunk)
	if perChunk > 0 {
		k = min(k, n/perChunk)
	}
	return int(max(k, 1))
}

// Bounds returns chunk w's half-open range when [0, n) is cut into k
// contiguous chunks of near-equal size.
func Bounds(n int64, k, w int) (lo, hi int64) {
	return n * int64(w) / int64(k), n * int64(w+1) / int64(k)
}

// Run calls fn(s, w) for every chunk w in [0, k) and returns the result of
// the lowest-numbered chunk that returned a non-negative value, or -1.
// Kernels use the result for the index of the first bad item in their
// chunk, so the error a pass reports is the one a serial scan would meet
// first. Chunk 0 runs on the caller's goroutine. With k == 1 Run is a plain
// call: it spawns nothing and, when fn is a top-level function or method
// expression, allocates nothing.
func Run[S any](k int, s S, fn func(s S, w int) int64) int64 {
	if k <= 1 {
		return fn(s, 0)
	}
	return spawn(k, s, fn)
}

func spawn[S any](k int, s S, fn func(S, int) int64) int64 {
	res := make([]int64, k)
	var wg sync.WaitGroup
	wg.Add(k - 1)
	for w := 1; w < k; w++ {
		go func() {
			defer wg.Done()
			res[w] = fn(s, w)
		}()
	}
	res[0] = fn(s, 0)
	wg.Wait()
	for _, r := range res {
		if r >= 0 {
			return r
		}
	}
	return -1
}
