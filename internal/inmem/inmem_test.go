package inmem_test

import (
	"math"
	"path/filepath"
	"testing"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/graph"
	"blaze/internal/inmem"
	"blaze/internal/ssd"
)

func setup(ctx exec.Context, seed uint64) (*inmem.System, *engine.Graph, *engine.Graph) {
	p := gen.Preset{Kind: gen.KindRMAT, A: 0.55, B: 0.2, C: 0.2, Seed: seed, V: 2048, E: 30000, Locality: 0.1}
	out, in := engine.BuildPreset(ctx, p, 1, ssd.OptaneSSD, nil, nil)
	cfg := inmem.DefaultConfig()
	cfg.Workers = 4
	return inmem.New(ctx, cfg), out, in
}

func TestInMemAllQueries(t *testing.T) {
	ctx := exec.NewSim()
	sys, g, in := setup(ctx, 61)
	var parent []int64
	var rank, y, dep []float64
	var ids []uint32
	x := make([]float64, g.NumVertices())
	for i := range x {
		x[i] = float64(i % 5)
	}
	ctx.Run("main", func(p exec.Proc) {
		parent = algo.Must(algo.BFS(sys, p, g, 0))
		rank = algo.Must(algo.PageRank(sys, p, g, 0.01, 20))
		ids = algo.Must(algo.WCC(sys, p, g, in))
		y = algo.Must(algo.SpMV(sys, p, g, x))
		dep = algo.Must(algo.BC(sys, p, g, in, 0))
	})
	if _, ok := algo.CheckParents(g.CSR, 0, parent, algo.RefBFSDepth(g.CSR, 0)); !ok {
		t.Error("in-core BFS invalid")
	}
	refPR := algo.RefPageRankDelta(g.CSR, 0.01, 20)
	for v := range rank {
		if math.Abs(rank[v]-refPR[v]) > 1e-6*math.Max(refPR[v], 1e-9) {
			t.Fatalf("in-core PR rank[%d] = %g, want %g", v, rank[v], refPR[v])
		}
	}
	if !algo.SamePartition(ids, algo.RefWCC(g.CSR)) {
		t.Error("in-core WCC mismatch")
	}
	refY := algo.RefSpMV(g.CSR, x)
	for v := range y {
		if math.Abs(y[v]-refY[v]) > 1e-9*math.Max(1, refY[v]) {
			t.Fatalf("in-core SpMV y[%d] = %g, want %g", v, y[v], refY[v])
		}
	}
	refBC := algo.RefBC(g.CSR, 0)
	for v := range dep {
		if math.Abs(dep[v]-refBC[v]) > 1e-6*math.Max(1, math.Abs(refBC[v])) {
			t.Fatalf("in-core BC[%d] = %g, want %g", v, dep[v], refBC[v])
		}
	}
}

// TestInMemNoIO: the in-core engine must never touch the device array.
func TestInMemNoIO(t *testing.T) {
	ctx := exec.NewSim()
	p := gen.Preset{Kind: gen.KindRMAT, A: 0.55, B: 0.2, C: 0.2, Seed: 62, V: 1024, E: 10000}
	stats := newStats()
	out, _ := engine.BuildPreset(ctx, p, 1, ssd.OptaneSSD, stats, nil)
	sys := inmem.New(ctx, inmem.DefaultConfig())
	ctx.Run("main", func(pp exec.Proc) {
		algo.BFS(sys, pp, out, 0)
	})
	if stats.TotalBytes() != 0 {
		t.Errorf("in-core engine read %d device bytes", stats.TotalBytes())
	}
}

// TestInMemMemoryCost: holding the graph in core costs at least the full
// adjacency — the §II trade the out-of-core model avoids.
func TestInMemMemoryCost(t *testing.T) {
	ctx := exec.NewSim()
	_, g, _ := setup(ctx, 63)
	if inmem.MemBytes(g.CSR) < g.CSR.AdjBytes() {
		t.Error("in-core memory accounting below adjacency size")
	}
}

// TestInMemIndexOnlyGraphErrors: a graph loaded index-only from files keeps
// its adjacency on the devices, which the in-core engine cannot walk; it
// must say so through EdgeMap's error, not panic.
func TestInMemIndexOnlyGraphErrors(t *testing.T) {
	base := filepath.Join(t.TempDir(), "g")
	if err := graph.WriteFiles(graph.MustBuild(4, []uint32{0, 1}, []uint32{1, 2}), nil, base); err != nil {
		t.Fatal(err)
	}
	ctx := exec.NewSim()
	g, err := engine.FromFiles(ctx, "g", base+".gr.index", base+".gr.adj.0", 1, ssd.OptaneSSD, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	sys := inmem.New(ctx, inmem.DefaultConfig())
	ctx.Run("main", func(p exec.Proc) {
		out, err := sys.EdgeMap(p, g, frontier.All(4), algo.EdgeFuncs{
			Scatter: func(s, d uint32) float64 { return 1 },
			Gather:  func(d uint32, v float64) bool { return true },
			Cond:    func(d uint32) bool { return true },
		}, true)
		if err == nil || out != nil {
			t.Errorf("EdgeMap on an index-only graph = (%v, %v), want an error", out, err)
		}
	})
}
