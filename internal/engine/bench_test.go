package engine

import (
	"testing"

	"blaze/gen"
	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/graph"
	"blaze/internal/metrics"
	"blaze/internal/ssd"
)

// BenchmarkEdgeMapRealPageRank measures a full PageRank-style EdgeMap round
// on the real-time backend: IO pipeline, page scan, binning scatter, and
// gather, end to end. The device profile is scaled far beyond any real SSD
// so the pacing model never sleeps and the benchmark measures pure host-side
// work. The pooled variant reuses IO buffers, bin buffer pairs, and stagers
// across iterations; its allocs/op should be a small fraction of unpooled.
func BenchmarkEdgeMapRealPageRank(b *testing.B) {
	pr := gen.Preset{Kind: gen.KindRMAT, A: 0.57, B: 0.19, C: 0.19, Seed: 11, V: 65536, E: 1_000_000}
	src, dst := pr.Generate()
	c := graph.MustBuild(pr.V, src, dst)
	deg := make([]float64, c.V)
	for i := int64(0); i < c.E; i++ {
		deg[graph.GetEdge(c.Adj, i)]++
	}
	run := func(b *testing.B, pooled bool) {
		b.ReportAllocs()
		ctx := exec.NewReal()
		stats := metrics.NewIOStats(2)
		// ~1000x Optane: realResource's pacing sleeps round to zero.
		g := FromCSR(ctx, "bench", c, 2, ssd.OptaneSSD.Scale(1000), stats, nil)
		conf := DefaultConfig(c.E)
		conf.Stats = stats
		if pooled {
			conf.Pool = NewPool()
		}
		rank := make([]float64, c.V)
		next := make([]float64, c.V)
		for v := range rank {
			rank[v] = 1.0 / float64(c.V)
		}
		all := frontier.All(c.V)
		ctx.Run("main", func(p exec.Proc) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := EdgeMap(ctx, p, g, all,
					func(s, d uint32) float64 { return rank[s] / (deg[s] + 1) },
					func(d uint32, v float64) bool { next[d] += v; return false },
					func(d uint32) bool { return true },
					false, conf); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
		})
	}
	b.Run("unpooled", func(b *testing.B) { run(b, false) })
	b.Run("pooled", func(b *testing.B) { run(b, true) })
}
