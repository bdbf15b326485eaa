package algo

import (
	"math"
	"testing"

	"blaze/gen"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/graph"
	"blaze/internal/ssd"
)

// testSetup builds a moderately sized R-MAT graph and a Blaze system under
// the given backend.
func testSetup(ctx exec.Context, seed uint64) (*Blaze, *engine.Graph, *engine.Graph, *graph.CSR) {
	p := gen.Preset{Kind: gen.KindRMAT, A: 0.55, B: 0.2, C: 0.2, Seed: seed, V: 2048, E: 30000, Locality: 0.1}
	out, in := engine.BuildPreset(ctx, p, 1, ssd.OptaneSSD, nil, nil)
	cfg := engine.DefaultConfig(out.NumEdges())
	cfg.ScatterProcs, cfg.GatherProcs = 4, 4
	return NewBlaze(ctx, cfg), out, in, out.CSR
}

func TestBFSFromSeveralSources(t *testing.T) {
	for _, src := range []uint32{0, 5, 99, 2047} {
		ctx := exec.NewSim()
		sys, g, _, c := testSetup(ctx, 2)
		var parent []int64
		ctx.Run("main", func(p exec.Proc) {
			parent = Must(BFS(sys, p, g, src))
		})
		depth := RefBFSDepth(c, src)
		if v, ok := CheckParents(c, src, parent, depth); !ok {
			t.Fatalf("src %d: invalid parent for vertex %d", src, v)
		}
	}
}

func TestPageRankRanksHubsHigher(t *testing.T) {
	// A star graph: every vertex points at vertex 0.
	n := uint32(64)
	var src, dst []uint32
	for v := uint32(1); v < n; v++ {
		src = append(src, v)
		dst = append(dst, 0)
	}
	c := graph.MustBuild(n, src, dst)
	ctx := exec.NewSim()
	g := engine.FromCSR(ctx, "star", c, 1, ssd.OptaneSSD, nil, nil)
	cfg := engine.DefaultConfig(c.E)
	cfg.ScatterProcs, cfg.GatherProcs = 2, 2
	sys := NewBlaze(ctx, cfg)
	var rank []float64
	ctx.Run("main", func(p exec.Proc) {
		rank = Must(PageRank(sys, p, g, 0.001, 0))
	})
	for v := uint32(1); v < n; v++ {
		if rank[0] <= rank[v] {
			t.Fatalf("hub rank %.4f not above leaf rank %.4f", rank[0], rank[v])
		}
	}
}

func TestWCCDisconnected(t *testing.T) {
	// Two triangles and an isolated vertex.
	src := []uint32{0, 1, 2, 3, 4, 5}
	dst := []uint32{1, 2, 0, 4, 5, 3}
	c := graph.MustBuild(16, src, dst)
	ctx := exec.NewSim()
	g := engine.FromCSR(ctx, "tri", c, 1, ssd.OptaneSSD, nil, nil)
	in := engine.FromCSR(ctx, "tri.t", c.Transpose(), 1, ssd.OptaneSSD, nil, nil)
	cfg := engine.DefaultConfig(c.E)
	cfg.ScatterProcs, cfg.GatherProcs = 2, 2
	sys := NewBlaze(ctx, cfg)
	var ids []uint32
	ctx.Run("main", func(p exec.Proc) {
		ids = Must(WCC(sys, p, g, in))
	})
	if !SamePartition(ids, RefWCC(c)) {
		t.Error("WCC wrong on disconnected graph")
	}
	if ids[0] == ids[3] || ids[0] == ids[15] {
		t.Error("distinct components share a label")
	}
}

func TestBCOnPath(t *testing.T) {
	// Path 0->1->2->3: delta[1] = (1+delta[2]) = 2, delta[2] = 1.
	src := []uint32{0, 1, 2}
	dst := []uint32{1, 2, 3}
	c := graph.MustBuild(16, src, dst)
	ctx := exec.NewSim()
	g := engine.FromCSR(ctx, "path", c, 1, ssd.OptaneSSD, nil, nil)
	in := engine.FromCSR(ctx, "path.t", c.Transpose(), 1, ssd.OptaneSSD, nil, nil)
	cfg := engine.DefaultConfig(c.E)
	cfg.ScatterProcs, cfg.GatherProcs = 1, 1
	sys := NewBlaze(ctx, cfg)
	var dep []float64
	ctx.Run("main", func(p exec.Proc) {
		dep = Must(BC(sys, p, g, in, 0))
	})
	want := []float64{3, 2, 1, 0}
	for v := 0; v < 4; v++ {
		if math.Abs(dep[v]-want[v]) > 1e-12 {
			t.Errorf("delta[%d] = %g, want %g", v, dep[v], want[v])
		}
	}
}

func TestIterLogRecordsEpochs(t *testing.T) {
	ctx := exec.NewSim()
	sys, g, _, _ := testSetup(ctx, 7)
	stats := sys.Cfg.Stats
	_ = stats
	ctx.Run("main", func(p exec.Proc) {
		BFS(sys, p, g, 0)
	})
	// Stats was nil in this config; EndIteration must be a safe no-op.
	if got := sys.IterDeviceBytes(); got != nil {
		t.Errorf("expected nil iteration log without stats, got %d entries", len(got))
	}
}

// TestPageRankOneIteration: one EdgeMap+VertexMap round, the unit the
// paper uses when comparing against Graphene (which lacks selective
// scheduling for PR).
func TestPageRankOneIteration(t *testing.T) {
	ctx := exec.NewSim()
	sys, g, _, c := testSetup(ctx, 8)
	var rank []float64
	ctx.Run("main", func(p exec.Proc) {
		rank = Must(PageRank(sys, p, g, 1e-9, 1))
	})
	ref := RefPageRankDelta(c, 1e-9, 1)
	for v := range rank {
		if math.Abs(rank[v]-ref[v]) > 1e-9 {
			t.Fatalf("one-iteration rank[%d] = %g, want %g", v, rank[v], ref[v])
		}
	}
}

func TestAlgoMemoryAccounting(t *testing.T) {
	if AlgoMemoryBFS(100) != 800 {
		t.Error("BFS memory accounting")
	}
	if AlgoMemoryPageRank(100) != 2400 {
		t.Error("PR memory accounting")
	}
	if AlgoMemoryWCC(100) != 800 {
		t.Error("WCC memory accounting")
	}
	if AlgoMemorySpMV(100) != 1600 {
		t.Error("SpMV memory accounting")
	}
	if AlgoMemoryBC(100, 100) <= AlgoMemoryPageRank(100) {
		t.Error("BC should be the most memory-hungry query")
	}
}
