package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestChunks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(8)
	for _, c := range []struct {
		n, perChunk int64
		want        int
	}{
		{0, 0, 1},
		{2*MinChunk - 1, 0, 1},           // below the cutoff: one chunk
		{2 * MinChunk, 0, 2},             // two full chunks
		{100 * MinChunk, 0, 8},           // GOMAXPROCS caps
		{100 * MinChunk, 1, 8},           // small histograms do not
		{10 * MinChunk, MinChunk * 4, 2}, // histograms cap: 2 × state <= n
		{10 * MinChunk, MinChunk * 11, 1},
	} {
		if got := Chunks(c.n, c.perChunk); got != c.want {
			t.Errorf("Chunks(%d, %d) = %d, want %d", c.n, c.perChunk, got, c.want)
		}
	}
	runtime.GOMAXPROCS(1)
	if got := Chunks(100*MinChunk, 0); got != 1 {
		t.Errorf("GOMAXPROCS 1: %d chunks", got)
	}
}

// TestBoundsTile: the chunks cover [0, n) in order, without gaps or overlap,
// and differ in size by at most one.
func TestBoundsTile(t *testing.T) {
	for _, n := range []int64{0, 1, 7, 1000, 1 << 40} {
		for k := 1; k <= 9; k++ {
			var next int64
			for w := 0; w < k; w++ {
				lo, hi := Bounds(n, k, w)
				if lo != next || hi < lo || hi-lo > n/int64(k)+1 {
					t.Fatalf("n=%d k=%d: chunk %d is [%d, %d) after %d", n, k, w, lo, hi, next)
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d k=%d: chunks end at %d", n, k, next)
			}
		}
	}
}

type state struct {
	ran *[8]atomic.Int32
	bad []int64 // chunk w's result
}

func record(s state, w int) int64 {
	s.ran[w].Add(1)
	return s.bad[w]
}

// TestRunLowestChunkWins: every chunk runs exactly once and the result is
// the lowest chunk's non-negative one, whichever finishes first.
func TestRunLowestChunkWins(t *testing.T) {
	for _, c := range []struct {
		bad  []int64
		want int64
	}{
		{[]int64{-1}, -1},
		{[]int64{5}, 5},
		{[]int64{-1, -1, -1}, -1},
		{[]int64{-1, 40, 20}, 40},
		{[]int64{3, 40, -1, 70}, 3},
		{[]int64{-1, -1, -1, -1, -1, -1, -1, 99}, 99},
	} {
		var ran [8]atomic.Int32
		if got := Run(len(c.bad), state{&ran, c.bad}, record); got != c.want {
			t.Errorf("%v: Run = %d, want %d", c.bad, got, c.want)
		}
		for w := range c.bad {
			if n := ran[w].Load(); n != 1 {
				t.Errorf("%v: chunk %d ran %d times", c.bad, w, n)
			}
		}
	}
}

// TestRunOneChunkAllocatesNothing: a single chunk is a plain call.
func TestRunOneChunkAllocatesNothing(t *testing.T) {
	var ran [8]atomic.Int32
	s := state{&ran, []int64{-1}}
	if a := testing.AllocsPerRun(100, func() { Run(1, s, record) }); a != 0 {
		t.Errorf("Run(1, …) allocates %.0f times", a)
	}
}
