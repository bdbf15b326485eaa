package syncvar_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/alloctest"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/fault"
	"blaze/internal/frontier"
	"blaze/internal/graph"
	"blaze/internal/metrics"
	"blaze/internal/ssd"
	"blaze/internal/syncvar"
)

func preset() gen.Preset {
	return gen.Preset{Kind: gen.KindRMAT, A: 0.55, B: 0.2, C: 0.2, Seed: 31, V: 2048, E: 30000, Locality: 0.1}
}

func newSystem(ctx exec.Context, e int64, stats *metrics.IOStats) *syncvar.System {
	cfg := engine.DefaultConfig(e)
	cfg.ScatterProcs, cfg.GatherProcs = 2, 2
	cfg.Stats = stats
	return syncvar.New(ctx, cfg)
}

func countFuncs(got []float64) algo.EdgeFuncs {
	return algo.EdgeFuncs{
		Scatter: func(s, d uint32) float64 { return 1 },
		Gather:  func(d uint32, v float64) bool { got[d] += v; return true },
		Cond:    func(d uint32) bool { return true },
	}
}

// The inline-atomic variant answers like the serial references.
func TestSyncMatchesReferences(t *testing.T) {
	ctx := exec.NewSim()
	g, in := engine.BuildPreset(ctx, preset(), 2, ssd.OptaneSSD, nil, nil)
	sys := newSystem(ctx, g.NumEdges(), nil)
	var parent []int64
	var rank []float64
	var ids []uint32
	ctx.Run("main", func(p exec.Proc) {
		parent = algo.Must(algo.BFS(sys, p, g, 0))
		rank = algo.Must(algo.PageRank(sys, p, g, 0.01, 20))
		ids = algo.Must(algo.WCC(sys, p, g, in))
	})
	if v, ok := algo.CheckParents(g.CSR, 0, parent, algo.RefBFSDepth(g.CSR, 0)); !ok {
		t.Errorf("invalid BFS parent for vertex %d", v)
	}
	ref := algo.RefPageRankDelta(g.CSR, 0.01, 20)
	for v := range rank {
		if math.Abs(rank[v]-ref[v]) > 1e-6*math.Max(ref[v], 1e-9) {
			t.Fatalf("rank[%d] = %g, want %g", v, rank[v], ref[v])
		}
	}
	if !algo.SamePartition(ids, algo.RefWCC(g.CSR)) {
		t.Error("WCC partition differs from the reference")
	}
}

// The variant scans only the base CSR, so a graph carrying sealed delta
// segments must be refused rather than answered for its base alone.
func TestSyncRefusesSegments(t *testing.T) {
	ctx := exec.NewSim()
	g, _ := engine.BuildPreset(ctx, preset(), 1, ssd.OptaneSSD, nil, nil)
	dy := engine.NewDynamic(ctx, g, nil, ssd.OptaneSSD, nil, nil, nil)
	if err := dy.Add(0, 1); err != nil {
		t.Fatal(err)
	}
	dy.Seal()
	sys := newSystem(ctx, g.NumEdges(), nil)
	ctx.Run("main", func(p exec.Proc) {
		got := make([]float64, g.NumVertices())
		out, err := sys.EdgeMap(p, dy.Fwd, frontier.All(g.NumVertices()), countFuncs(got), true)
		if err == nil || out != nil || !strings.Contains(err.Error(), "segments") {
			t.Errorf("EdgeMap over a segmented graph = (%v, %v), want a segment error", out, err)
		}
	})
}

// With every page permanently unreadable, EdgeMap returns the injected
// fault — not a panic, not a frontier — and every proc joins (under Sim,
// Run returning proves it), so the next call runs and fails the same way.
func TestSyncPermanentFaultReturnsError(t *testing.T) {
	ctx := exec.NewSim()
	p := preset()
	src, dst := p.Generate()
	c := graph.MustBuild(p.V, src, dst)
	stats := metrics.NewIOStats(2)
	g := engine.FromCSR(ctx, "faulty", c, 2, ssd.OptaneSSD, stats, nil,
		fault.Policy{Seed: 7, PermanentRate: 1}.DeviceOptions())
	sys := newSystem(ctx, c.E, stats)
	ctx.Run("main", func(pp exec.Proc) {
		for round := 0; round < 2; round++ {
			got := make([]float64, c.V)
			out, err := sys.EdgeMap(pp, g, frontier.All(c.V), countFuncs(got), true)
			var fe *fault.Error
			if !errors.As(err, &fe) {
				t.Errorf("round %d: error chain lost the injected fault: %v", round, err)
			}
			if out != nil {
				t.Errorf("round %d: failed EdgeMap returned a frontier", round)
			}
		}
	})
	if stats.ReadErrors() == 0 {
		t.Error("unrecoverable errors not recorded in IOStats")
	}
}

// TestVertexMapAllocatesNoPool: a VertexMap on the variant built without a
// pool, as the registry builds it, allocates no more than the same call on
// one built with a pool: New gives the config a pool, so no call makes an
// empty one of its own.
func TestVertexMapAllocatesNoPool(t *testing.T) {
	ctx := exec.NewSim()
	f := frontier.NewVertexSubset(1024)
	for v := uint32(0); v < 1024; v += 3 {
		f.Add(v)
	}
	f.Seal()
	even := func(v uint32) bool { return v%2 == 0 }
	measure := func(cfg engine.Config) (n, b uint64) {
		cfg.ScatterProcs, cfg.GatherProcs = 2, 2
		sys := syncvar.New(ctx, cfg)
		ctx.Run("main", func(p exec.Proc) {
			n, b = alloctest.Min(5, func() { sys.VertexMap(p, f, even) })
		})
		return n, b
	}
	bare := engine.DefaultConfig(1 << 20)
	pooled := bare
	pooled.Pool = engine.NewPool()
	bn, bb := measure(bare)
	pn, pb := measure(pooled)
	if bn > pn || bb > pb {
		t.Errorf("VertexMap without a pool allocates %d objects, %d bytes; with one %d, %d", bn, bb, pn, pb)
	}
}
