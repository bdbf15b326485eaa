package cluster_test

import (
	"math"
	"testing"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/cluster"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/metrics"
	"blaze/internal/ssd"
)

func setup(ctx exec.Context, machines int, seed uint64, mut ...func(*cluster.Config)) (*cluster.Cluster, *engine.Graph, *engine.Graph) {
	p := gen.Preset{Kind: gen.KindRMAT, A: 0.55, B: 0.2, C: 0.2, Seed: seed, V: 2048, E: 30000, Locality: 0.1}
	out, in := engine.BuildPreset(ctx, p, 1, ssd.OptaneSSD, nil, nil)
	cfg := cluster.DefaultConfig(machines, out.NumEdges())
	cfg.Engine = cfg.Engine.WithThreads(4, 0.5)
	for _, m := range mut {
		m(&cfg)
	}
	return cluster.New(ctx, cfg), out, in
}

func TestClusterBFSMatchesReference(t *testing.T) {
	for _, machines := range []int{1, 2, 4} {
		ctx := exec.NewSim()
		cl, g, _ := setup(ctx, machines, 41)
		var parent []int64
		ctx.Run("main", func(p exec.Proc) {
			parent = algo.Must(algo.BFS(cl, p, g, 0))
		})
		depth := algo.RefBFSDepth(g.CSR, 0)
		if v, ok := algo.CheckParents(g.CSR, 0, parent, depth); !ok {
			t.Errorf("%d machines: invalid parent for vertex %d", machines, v)
		}
	}
}

func TestClusterPageRankMatchesReference(t *testing.T) {
	ctx := exec.NewSim()
	cl, g, _ := setup(ctx, 4, 42)
	var rank []float64
	ctx.Run("main", func(p exec.Proc) {
		rank = algo.Must(algo.PageRank(cl, p, g, 0.01, 20))
	})
	ref := algo.RefPageRankDelta(g.CSR, 0.01, 20)
	for v := range rank {
		if math.Abs(rank[v]-ref[v]) > 1e-6*math.Max(ref[v], 1e-9) {
			t.Fatalf("rank[%d] = %g, want %g", v, rank[v], ref[v])
		}
	}
}

func TestClusterWCCAndSpMV(t *testing.T) {
	ctx := exec.NewSim()
	cl, g, in := setup(ctx, 3, 43)
	var ids []uint32
	var y []float64
	x := make([]float64, g.NumVertices())
	for i := range x {
		x[i] = float64(i % 7)
	}
	ctx.Run("main", func(p exec.Proc) {
		ids = algo.Must(algo.WCC(cl, p, g, in))
		y = algo.Must(algo.SpMV(cl, p, g, x))
	})
	if !algo.SamePartition(ids, algo.RefWCC(g.CSR)) {
		t.Error("cluster WCC partition mismatch")
	}
	ref := algo.RefSpMV(g.CSR, x)
	for v := range y {
		if math.Abs(y[v]-ref[v]) > 1e-9*math.Max(1, ref[v]) {
			t.Fatalf("y[%d] = %g, want %g", v, y[v], ref[v])
		}
	}
}

func TestClusterBCMatchesReference(t *testing.T) {
	ctx := exec.NewSim()
	cl, g, in := setup(ctx, 2, 44)
	var dep []float64
	ctx.Run("main", func(p exec.Proc) {
		dep = algo.Must(algo.BC(cl, p, g, in, 0))
	})
	ref := algo.RefBC(g.CSR, 0)
	for v := range dep {
		if math.Abs(dep[v]-ref[v]) > 1e-6*math.Max(1, math.Abs(ref[v])) {
			t.Fatalf("BC[%d] = %g, want %g", v, dep[v], ref[v])
		}
	}
}

// TestClusterScalesAggregateIO: with M machines the aggregate device
// bandwidth grows, so a dense IO-bound query must get faster.
func TestClusterScalesAggregateIO(t *testing.T) {
	elapsed := func(machines int) int64 {
		ctx := exec.NewSim()
		pr := gen.Preset{Kind: gen.KindRMAT, A: 0.57, B: 0.19, C: 0.19, Seed: 45, V: 65536, E: 4_000_000, Locality: 0.1}
		out, _ := engine.BuildPreset(ctx, pr, 1, ssd.OptaneSSD, nil, nil)
		cfg := cluster.DefaultConfig(machines, out.NumEdges())
		cfg.Engine.Stats = metrics.NewIOStats(machines)
		cl := cluster.New(ctx, cfg)
		ctx.Run("main", func(p exec.Proc) {
			x := make([]float64, out.NumVertices())
			algo.SpMV(cl, p, out, x)
		})
		return ctx.End
	}
	t1, t4 := elapsed(1), elapsed(4)
	if float64(t4) > 0.5*float64(t1) {
		t.Errorf("4 machines (%d ns) not clearly faster than 1 (%d ns)", t4, t1)
	}
}

// TestClusterNetworkBound: an absurdly slow network must dominate and erase
// the scale-out win on a frontier-heavy query.
func TestClusterNetworkBound(t *testing.T) {
	run := func(bw float64) int64 {
		ctx := exec.NewSim()
		cl, g, _ := setup(ctx, 4, 46, func(c *cluster.Config) { c.NetBandwidth = bw })
		ctx.Run("main", func(p exec.Proc) {
			algo.BFS(cl, p, g, 0)
		})
		return ctx.End
	}
	fast, slow := run(25e9/8), run(1e6)
	if slow < 2*fast {
		t.Errorf("slow network (%d ns) not clearly worse than fast (%d ns)", slow, fast)
	}
}
