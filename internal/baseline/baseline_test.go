// Package baseline_test validates every comparator engine — the
// synchronization-based Blaze variant, the FlashGraph-style baseline, and
// the Graphene-style baseline — against the serial references on all five
// queries, and checks that each system exhibits the pathology the paper
// attributes to it.
package baseline_test

import (
	"math"
	"testing"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/baseline/flashgraph"
	"blaze/internal/baseline/graphene"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/graph"
	"blaze/internal/metrics"
	"blaze/internal/ssd"
	"blaze/internal/syncvar"
)

func preset(seed uint64) gen.Preset {
	return gen.Preset{Kind: gen.KindRMAT, A: 0.55, B: 0.2, C: 0.2, Seed: seed, V: 2048, E: 30000, Locality: 0.1}
}

// systems builds all three comparators over a fresh graph under one Sim.
func systems(ctx exec.Context, seed uint64) (map[string]algo.System, *engine.Graph, *engine.Graph) {
	out, in := engine.BuildPreset(ctx, preset(seed), 1, ssd.OptaneSSD, nil, nil)
	cfg := engine.DefaultConfig(out.NumEdges())
	cfg.ScatterProcs, cfg.GatherProcs = 4, 4
	fgCfg := flashgraph.DefaultConfig()
	fgCfg.ComputeWorkers = 8
	grCfg := graphene.DefaultConfig(1)
	grCfg.Pairs = 4
	return map[string]algo.System{
		"sync":       syncvar.New(ctx, cfg),
		"flashgraph": flashgraph.New(ctx, fgCfg),
		"graphene":   graphene.New(ctx, grCfg, ssd.OptaneSSD),
	}, out, in
}

func TestAllSystemsBFS(t *testing.T) {
	for _, name := range []string{"sync", "flashgraph", "graphene"} {
		ctx := exec.NewSim()
		sys, g, _ := systems(ctx, 21)
		var parent []int64
		ctx.Run("main", func(p exec.Proc) {
			parent = algo.Must(algo.BFS(sys[name], p, g, 0))
		})
		depth := algo.RefBFSDepth(g.CSR, 0)
		if v, ok := algo.CheckParents(g.CSR, 0, parent, depth); !ok {
			t.Errorf("%s: invalid BFS parent for vertex %d", name, v)
		}
	}
}

func TestAllSystemsPageRank(t *testing.T) {
	for _, name := range []string{"sync", "flashgraph", "graphene"} {
		ctx := exec.NewSim()
		sys, g, _ := systems(ctx, 22)
		var rank []float64
		ctx.Run("main", func(p exec.Proc) {
			rank = algo.Must(algo.PageRank(sys[name], p, g, 0.01, 30))
		})
		ref := algo.RefPageRankDelta(g.CSR, 0.01, 30)
		for v := range rank {
			if math.Abs(rank[v]-ref[v]) > 1e-6*math.Max(ref[v], 1e-9) {
				t.Fatalf("%s: rank[%d] = %g, want %g", name, v, rank[v], ref[v])
			}
		}
	}
}

func TestAllSystemsWCC(t *testing.T) {
	for _, name := range []string{"sync", "flashgraph", "graphene"} {
		ctx := exec.NewSim()
		sys, g, in := systems(ctx, 23)
		var ids []uint32
		ctx.Run("main", func(p exec.Proc) {
			ids = algo.Must(algo.WCC(sys[name], p, g, in))
		})
		if !algo.SamePartition(ids, algo.RefWCC(g.CSR)) {
			t.Errorf("%s: WCC partition mismatch", name)
		}
	}
}

func TestAllSystemsSpMV(t *testing.T) {
	for _, name := range []string{"sync", "flashgraph", "graphene"} {
		ctx := exec.NewSim()
		sys, g, _ := systems(ctx, 24)
		x := make([]float64, g.NumVertices())
		r := gen.NewRNG(5)
		for i := range x {
			x[i] = float64(r.Intn(100))
		}
		var y []float64
		ctx.Run("main", func(p exec.Proc) {
			y = algo.Must(algo.SpMV(sys[name], p, g, x))
		})
		ref := algo.RefSpMV(g.CSR, x)
		for v := range y {
			if math.Abs(y[v]-ref[v]) > 1e-9*math.Max(1, ref[v]) {
				t.Fatalf("%s: y[%d] = %g, want %g", name, v, y[v], ref[v])
			}
		}
	}
}

func TestAllSystemsBC(t *testing.T) {
	for _, name := range []string{"sync", "flashgraph", "graphene"} {
		ctx := exec.NewSim()
		sys, g, in := systems(ctx, 25)
		var dep []float64
		ctx.Run("main", func(p exec.Proc) {
			dep = algo.Must(algo.BC(sys[name], p, g, in, 0))
		})
		ref := algo.RefBC(g.CSR, 0)
		for v := range dep {
			if math.Abs(dep[v]-ref[v]) > 1e-6*math.Max(1, math.Abs(ref[v])) {
				t.Fatalf("%s: BC[%d] = %g, want %g", name, v, dep[v], ref[v])
			}
		}
	}
}

// TestSyncVariantSlowerThanBlaze reproduces Figure 8's claim on a
// computation-heavy query over a power-law graph.
func TestSyncVariantSlowerThanBlaze(t *testing.T) {
	run := func(useSync bool) int64 {
		ctx := exec.NewSim()
		p := preset(26)
		p.V, p.E = 32768, 1_000_000
		out, _ := engine.BuildPreset(ctx, p, 1, ssd.OptaneSSD, nil, nil)
		cfg := engine.DefaultConfig(out.NumEdges())
		var sys algo.System
		if useSync {
			sys = syncvar.New(ctx, cfg)
		} else {
			sys = algo.NewBlaze(ctx, cfg)
		}
		ctx.Run("main", func(pp exec.Proc) {
			algo.PageRank(sys, pp, out, 0.01, 3)
		})
		return ctx.End
	}
	blazeT, syncT := run(false), run(true)
	if float64(syncT) < 1.1*float64(blazeT) {
		t.Errorf("sync variant (%d ns) not measurably slower than Blaze (%d ns)", syncT, blazeT)
	}
}

// TestFlashGraphIdlePeriods reproduces Figure 2: on a fast device, the
// message-processing phase leaves the device idle for a significant share
// of the run, while on a slow NAND device it does not.
func TestFlashGraphIdlePeriods(t *testing.T) {
	idleFrac := func(prof ssd.Profile) float64 {
		ctx := exec.NewSim()
		p := preset(27)
		p.V, p.E = 32768, 1_000_000
		stats := metrics.NewIOStats(1)
		tl := metrics.NewTimeline(1e5) // 100 us buckets
		out, _ := engine.BuildPreset(ctx, p, 1, prof, stats, tl)
		cfg := flashgraph.DefaultConfig()
		cfg.ComputeWorkers = 16
		cfg.CacheBytes = 0 // isolate the skew effect
		cfg.Stats = stats
		sys := flashgraph.New(ctx, cfg)
		ctx.Run("main", func(pp exec.Proc) {
			algo.PageRank(sys, pp, out, 0.01, 3)
		})
		return tl.IdleFraction(0.05 * prof.RandBytesPerSec)
	}
	optane, nand := idleFrac(ssd.OptaneSSD), idleFrac(ssd.NANDSSD)
	if optane < nand+0.15 {
		t.Errorf("FlashGraph idle fraction on Optane (%.2f) not clearly above NAND (%.2f)", optane, nand)
	}
}

// TestGrapheneIOSkew reproduces Figure 3: per-iteration IO across 8 devices
// skews on a power-law graph and stays balanced on a uniform graph.
func TestGrapheneIOSkew(t *testing.T) {
	// The paper's Figure 3 metric: max-min bytes across the 8 devices per
	// iteration. The signature is that on power-law graphs the heavy-IO
	// iterations carry large absolute skew, while on the uniform graph
	// heavy iterations are near-perfectly balanced. We therefore compare
	// the peak skew among iterations doing at least a quarter of the
	// heaviest iteration's IO.
	heavySkew := func(short string) int64 {
		pr, err := gen.PresetByShort(short)
		if err != nil {
			t.Fatal(err)
		}
		pr = pr.Scaled(2048)
		ctx := exec.NewSim()
		stats := metrics.NewIOStats(8)
		out, _ := engine.BuildPreset(ctx, pr, 1, ssd.OptaneSSD, nil, nil)
		cfg := graphene.DefaultConfig(8)
		cfg.Stats = stats
		sys := graphene.New(ctx, cfg, ssd.OptaneSSD)
		ctx.Run("main", func(pp exec.Proc) {
			algo.BFS(sys, pp, out, 0)
		})
		epochs := sys.IterDeviceBytes()
		var maxTotal int64
		totals := make([]int64, len(epochs))
		for i, ep := range epochs {
			for _, b := range ep {
				totals[i] += b
			}
			if totals[i] > maxTotal {
				maxTotal = totals[i]
			}
		}
		var worst int64
		for i, ep := range epochs {
			if totals[i]*4 < maxTotal {
				continue
			}
			if s := metrics.Skew(ep); s > worst {
				worst = s
			}
		}
		return worst
	}
	power, uniform := heavySkew("r2"), heavySkew("ur")
	if power < 2*uniform {
		t.Errorf("Graphene heavy-iteration skew on power-law (%d B) not clearly above uniform (%d B)", power, uniform)
	}
}

// TestFlashGraphCacheHelpsRepeatTraversals checks the LRU cache mechanism:
// with a cache covering the graph, the second of two identical traversals
// issues almost no device IO.
func TestFlashGraphCacheHelpsRepeatTraversals(t *testing.T) {
	ctx := exec.NewSim()
	stats := metrics.NewIOStats(1)
	out, _ := engine.BuildPreset(ctx, preset(29), 1, ssd.OptaneSSD, stats, nil)
	cfg := flashgraph.DefaultConfig()
	cfg.ComputeWorkers = 4
	cfg.Stats = stats
	sys := flashgraph.New(ctx, cfg)
	var first, second int64
	ctx.Run("main", func(p exec.Proc) {
		algo.SpMV(sys, p, out, make([]float64, out.NumVertices()))
		first = stats.TotalBytes()
		algo.SpMV(sys, p, out, make([]float64, out.NumVertices()))
		second = stats.TotalBytes() - first
	})
	if second > first/10 {
		t.Errorf("second traversal read %d bytes, want <10%% of first (%d)", second, first)
	}
}

// TestGrapheneAmplification: gap merging must read at least as many bytes
// as Blaze's exact paging for the same sparse traversal.
func TestGrapheneAmplification(t *testing.T) {
	p := preset(30)
	p.V, p.E = 32768, 500_000

	ctxB := exec.NewSim()
	statsB := metrics.NewIOStats(1)
	outB, _ := engine.BuildPreset(ctxB, p, 1, ssd.OptaneSSD, statsB, nil)
	cfgB := engine.DefaultConfig(outB.NumEdges())
	cfgB.Stats = statsB
	sysB := algo.NewBlaze(ctxB, cfgB)
	ctxB.Run("main", func(pp exec.Proc) { algo.BFS(sysB, pp, outB, 0) })

	ctxG := exec.NewSim()
	statsG := metrics.NewIOStats(1)
	outG, _ := engine.BuildPreset(ctxG, p, 1, ssd.OptaneSSD, nil, nil)
	cfgG := graphene.DefaultConfig(1)
	cfgG.Stats = statsG
	sysG := graphene.New(ctxG, cfgG, ssd.OptaneSSD)
	ctxG.Run("main", func(pp exec.Proc) { algo.BFS(sysG, pp, outG, 0) })

	if statsG.TotalBytes() < statsB.TotalBytes() {
		t.Errorf("Graphene read %d bytes < Blaze %d; gap merging should amplify IO",
			statsG.TotalBytes(), statsB.TotalBytes())
	}
}

// TestFlashGraphReadsCompactedGraph: FlashGraph's LRU is private to the
// System, out of reach of the cache Dynamic invalidates. A System that read
// a graph before compaction must read the compacted layout afterwards, not
// the pages it cached under the graph's old identity.
func TestFlashGraphReadsCompactedGraph(t *testing.T) {
	ctx := exec.NewSim()
	p := preset(31)
	src, dst := p.Generate()
	g := engine.FromCSR(ctx, "g", graph.MustBuild(p.V, src, dst), 1, ssd.OptaneSSD, nil, nil)
	cfg := flashgraph.DefaultConfig()
	cfg.ComputeWorkers = 4
	sys := flashgraph.New(ctx, cfg)
	dy := engine.NewDynamic(ctx, g, nil, ssd.OptaneSSD, nil, nil, nil)
	ctx.Run("main", func(pp exec.Proc) {
		if _, _, err := algo.BFSDepths(sys, pp, g, 0); err != nil {
			t.Error(err)
			return
		}
		// Insertions at low vertex IDs shift every later vertex's edges to
		// other page offsets.
		rng := gen.NewRNG(7)
		for i := 0; i < 2000; i++ {
			s, d := uint32(rng.Intn(64)), uint32(rng.Intn(int(p.V)))
			if err := dy.Add(s, d); err != nil {
				t.Error(err)
				return
			}
			src, dst = append(src, s), append(dst, d)
		}
		dy.Seal()
		if err := dy.Compact(); err != nil {
			t.Error(err)
			return
		}
		got, _, err := algo.BFSDepths(sys, pp, g, 0)
		if err != nil {
			t.Error(err)
			return
		}
		want := algo.RefBFSDepth(graph.MustBuild(p.V, src, dst), 0)
		for v := range want {
			if got[v] != want[v] {
				t.Errorf("after compaction: depth(%d) = %d, reference on base + inserted edges says %d", v, got[v], want[v])
				return
			}
		}
	})
}
