package engine

import (
	"runtime"
	"testing"
	"time"

	"blaze/internal/exec"
	"blaze/internal/fault"
	"blaze/internal/frontier"
)

// settleGoroutines waits up to a second for the goroutine count to fall
// back to base and fails t, naming what ran, when it does not.
func settleGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Errorf("%s: %d goroutines, %d before: a proc outlived its round", what, n, base)
	}
}

// TestPoolNoProcOutlivesItsRound: under Real, every proc a pooled EdgeMap
// spawns has exited soon after the call returns, on the clean path over a
// sparse, a dense and an empty frontier and on the path of a round that
// fails on a device fault. The count is taken inside Run, whose own wait
// for every proc would otherwise hide one that outlives its round.
func TestPoolNoProcOutlivesItsRound(t *testing.T) {
	ctx := exec.NewReal()
	g, c := testGraph(ctx, 2, nil)
	bad, _ := faultyGraph(ctx, 2, nil, fault.Policy{Seed: 7, PermanentRate: 1})
	conf := DefaultConfig(c.E)
	conf.Pool = NewPool()
	conf.ScatterProcs, conf.GatherProcs = 2, 3
	sparse := frontier.NewVertexSubset(c.V)
	for v := uint32(0); v < c.V; v += 301 {
		sparse.Add(v)
	}
	cases := []struct {
		name   string
		g      *Graph
		f      *frontier.VertexSubset
		failed bool
	}{
		{"sparse", g, sparse, false},
		{"dense", g, frontier.All(c.V), false},
		{"empty", g, frontier.NewVertexSubset(c.V), false},
		{"device fault", bad, frontier.All(c.V), true},
	}
	ctx.Run("main", func(p exec.Proc) {
		base := runtime.NumGoroutine()
		// Twice each, so the second call runs on what the first left in
		// the pool.
		for range 2 {
			for _, tc := range cases {
				out, _, err := EdgeMap(ctx, p, tc.g, tc.f,
					func(s, d uint32) uint32 { return s },
					func(d uint32, v uint32) bool { return true },
					func(d uint32) bool { return true },
					true, conf)
				if (err != nil) != tc.failed {
					t.Fatalf("%s: EdgeMap error %v", tc.name, err)
				}
				conf.Pool.Release(out)
				settleGoroutines(t, base, tc.name)
			}
		}
	})
}
