package engine

import (
	"testing"

	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/graph"
	"blaze/internal/metrics"
	"blaze/internal/pipeline"
)

// TestEdgeMapPooledRounds runs several EdgeMap rounds on the real backend
// with a shared Pool and checks every round computes correct in-degrees:
// pooled buffers, rebound stagers, and recycled bin pairs must not leak
// state between rounds.
func TestEdgeMapPooledRounds(t *testing.T) {
	ctx := exec.NewReal()
	stats := metrics.NewIOStats(2)
	g, c := testGraph(ctx, 2, stats)
	conf := DefaultConfig(c.E)
	conf.Stats = stats
	conf.Pool = NewPool()
	conf.ScatterProcs, conf.GatherProcs = 3, 3

	want := make([]int64, c.V)
	for i := int64(0); i < c.E; i++ {
		want[graph.GetEdge(c.Adj, i)]++
	}
	for round := 0; round < 3; round++ {
		got := make([]int64, c.V)
		var st Stats
		ctx.Run("main", func(p exec.Proc) {
			_, st, _ = EdgeMap(ctx, p, g, frontier.All(c.V),
				func(s, d uint32) int64 { return 1 },
				func(d uint32, v int64) bool { got[d] += v; return false },
				func(d uint32) bool { return true },
				false, conf)
		})
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("round %d: in-degree(%d) = %d, want %d", round, v, got[v], want[v])
			}
		}
		if st.Records != c.E {
			t.Fatalf("round %d: Records = %d, want %d", round, st.Records, c.E)
		}
	}
}

// TestEdgeMapPoolMixedValueTypes interleaves EdgeMap instantiations with
// different value types over one pool: type-keyed bin state must never
// cross between them.
func TestEdgeMapPoolMixedValueTypes(t *testing.T) {
	ctx := exec.NewReal()
	stats := metrics.NewIOStats(1)
	g, c := testGraph(ctx, 1, stats)
	conf := DefaultConfig(c.E)
	conf.Stats = stats
	conf.Pool = NewPool()

	want := make([]int64, c.V)
	for i := int64(0); i < c.E; i++ {
		want[graph.GetEdge(c.Adj, i)]++
	}
	for round := 0; round < 2; round++ {
		gotI := make([]int64, c.V)
		gotF := make([]float64, c.V)
		ctx.Run("main", func(p exec.Proc) {
			EdgeMap(ctx, p, g, frontier.All(c.V),
				func(s, d uint32) int64 { return 1 },
				func(d uint32, v int64) bool { gotI[d] += v; return false },
				func(d uint32) bool { return true },
				false, conf)
			EdgeMap(ctx, p, g, frontier.All(c.V),
				func(s, d uint32) float64 { return 0.5 },
				func(d uint32, v float64) bool { gotF[d] += v; return false },
				func(d uint32) bool { return true },
				false, conf)
		})
		for v := range want {
			if gotI[v] != want[v] {
				t.Fatalf("round %d: int in-degree(%d) = %d, want %d", round, v, gotI[v], want[v])
			}
			if gotF[v] != float64(want[v])*0.5 {
				t.Fatalf("round %d: float sum(%d) = %g, want %g", round, v, gotF[v], float64(want[v])*0.5)
			}
		}
	}
}

// TestPoolRecycling checks the take/put contract directly: matching sizes
// restock, mismatched sizes drop.
func TestPoolRecycling(t *testing.T) {
	pl := NewPool()
	bufs := []*pipeline.Buffer{{Data: make([]byte, 8)}, {Data: make([]byte, 8)}}
	pl.putIOBuffers(8, bufs)
	if got := pl.takeIOBuffers(8, 1); len(got) != 1 {
		t.Fatalf("take(8,1) = %d buffers, want 1", len(got))
	}
	if got := pl.takeIOBuffers(16, 4); len(got) != 0 {
		t.Fatalf("take with mismatched size = %d buffers, want 0 (drop)", len(got))
	}
	if got := pl.takeIOBuffers(8, 4); len(got) != 0 {
		t.Fatalf("pool not emptied after size change, got %d", len(got))
	}
}

// TestPoolInvisibleInVirtualTime pins why EdgeMap no longer drops the pool
// under exec.Sim: allocation is not modeled and recycled buffers take the
// same queue operations as fresh ones, so pooled and unpooled rounds end at
// the same virtual instant with the same device traffic.
func TestPoolInvisibleInVirtualTime(t *testing.T) {
	run := func(pool *Pool) (end int64, bytes int64) {
		ctx := exec.NewSim()
		stats := metrics.NewIOStats(2)
		g, c := testGraph(ctx, 2, stats)
		conf := DefaultConfig(c.E)
		conf.Stats = stats
		conf.Pool = pool
		ctx.Run("main", func(p exec.Proc) {
			for round := 0; round < 3; round++ {
				f := frontier.All(c.V)
				if round == 1 {
					f = frontier.Single(c.V, 1) // fewer buffers than the pool holds
				}
				if _, _, err := EdgeMap(ctx, p, g, f,
					func(s, d uint32) int64 { return 1 },
					func(d uint32, v int64) bool { return true },
					func(d uint32) bool { return true },
					true, conf); err != nil {
					t.Error(err)
				}
			}
		})
		return ctx.End, stats.TotalBytes()
	}
	endFresh, bytesFresh := run(nil)
	endPooled, bytesPooled := run(NewPool())
	if endFresh != endPooled || bytesFresh != bytesPooled {
		t.Errorf("pooled run ends at %d ns / %d bytes, unpooled at %d ns / %d bytes",
			endPooled, bytesPooled, endFresh, bytesFresh)
	}
}
