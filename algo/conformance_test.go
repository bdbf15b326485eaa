// Cross-engine conformance: every engine in the registry must compute the
// same answers for the same queries on the same graphs, and fail cleanly
// under injected device faults. The suite lives in an external test
// package because the registry imports algo.
package algo_test

import (
	"math"
	"testing"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/fault"
	"blaze/internal/graph"
	"blaze/internal/pagecache"
	"blaze/internal/registry"
	"blaze/internal/ssd"
	"blaze/internal/trace"
)

// conformanceEngines are the registry entries under test.
var conformanceEngines = []string{"blaze", "blaze-sync", "flashgraph", "graphene", "inmem"}

// randomCSR mirrors the in-package property tests' graph construction,
// with an explicit 0→1 edge so source 0 always has work to do.
func randomCSR(seed uint64, nEdges int) *graph.CSR {
	n := uint32(64 + seed%512)
	r := gen.NewRNG(seed)
	src := make([]uint32, nEdges)
	dst := make([]uint32, nEdges)
	src[0], dst[0] = 0, 1
	for i := 1; i < nEdges; i++ {
		src[i] = uint32(r.Intn(int(n)))
		dst[i] = uint32(r.Intn(int(n)))
	}
	return graph.MustBuild(n, src, dst)
}

// sysOn builds the named engine over its own fresh virtual-time context
// and graph pair, so engines cannot observe each other's state.
func sysOn(t *testing.T, name string, c *graph.CSR, devOpts ...ssd.DeviceOptions) (exec.Context, algo.System, *engine.Graph, *engine.Graph) {
	t.Helper()
	return sysTraced(t, name, c, nil, devOpts...)
}

// sysTraced is sysOn with an optional tracer threaded through the registry,
// for tests that compare traced and untraced executions.
func sysTraced(t *testing.T, name string, c *graph.CSR, tr *trace.Tracer, devOpts ...ssd.DeviceOptions) (exec.Context, algo.System, *engine.Graph, *engine.Graph) {
	t.Helper()
	ctx := exec.NewSim()
	out := engine.FromCSR(ctx, "conf", c, 1, ssd.OptaneSSD, nil, nil, devOpts...)
	in := engine.FromCSR(ctx, "conf.t", c.Transpose(), 1, ssd.OptaneSSD, nil, nil, devOpts...)
	sys, err := registry.New(name, ctx, registry.Options{
		Edges:   c.E,
		Workers: 4,
		NumDev:  1,
		Profile: ssd.OptaneSSD,
		DevOpts: devOpts,
		Tracer:  tr,
	})
	if err != nil {
		t.Fatalf("registry.New(%q): %v", name, err)
	}
	return ctx, sys, out, in
}

// TestConformanceBFS: every engine's parent array is a valid BFS forest
// with the reference depths — i.e. all engines reach the same vertices at
// the same levels (parent choice may legitimately differ by gather order).
func TestConformanceBFS(t *testing.T) {
	for _, seed := range []uint64{1, 17, 202} {
		c := randomCSR(seed, 800)
		ref := algo.RefBFSDepth(c, 0)
		for _, name := range conformanceEngines {
			ctx, sys, g, _ := sysOn(t, name, c)
			var parent []int64
			ctx.Run("main", func(p exec.Proc) {
				parent = algo.Must(algo.BFS(sys, p, g, 0))
			})
			if _, ok := algo.CheckParents(c, 0, parent, ref); !ok {
				t.Errorf("seed %d: %s: invalid BFS forest", seed, name)
			}
		}
	}
}

// TestConformanceWCC: every engine matches the union-find partition.
func TestConformanceWCC(t *testing.T) {
	for _, seed := range []uint64{3, 91} {
		c := randomCSR(seed, 500)
		ref := algo.RefWCC(c)
		for _, name := range conformanceEngines {
			ctx, sys, g, in := sysOn(t, name, c)
			var ids []uint32
			ctx.Run("main", func(p exec.Proc) {
				ids = algo.Must(algo.WCC(sys, p, g, in))
			})
			if !algo.SamePartition(ids, ref) {
				t.Errorf("seed %d: %s: WCC partition differs from union-find", seed, name)
			}
		}
	}
}

// TestConformanceSpMV: the product is a fixed sum per vertex, so engines
// must agree to floating-point reassociation tolerance.
func TestConformanceSpMV(t *testing.T) {
	c := randomCSR(7, 2000)
	x := make([]float64, c.V)
	r := gen.NewRNG(11)
	for i := range x {
		x[i] = float64(r.Intn(100))
	}
	results := map[string][]float64{}
	for _, name := range conformanceEngines {
		ctx, sys, g, _ := sysOn(t, name, c)
		var y []float64
		ctx.Run("main", func(p exec.Proc) {
			y = algo.Must(algo.SpMV(sys, p, g, x))
		})
		results[name] = y
	}
	base := results["blaze"]
	for _, name := range conformanceEngines[1:] {
		y := results[name]
		for v := range base {
			if math.Abs(y[v]-base[v]) > 1e-6*math.Max(1, math.Abs(base[v])) {
				t.Fatalf("%s: y[%d] = %g, blaze has %g", name, v, y[v], base[v])
			}
		}
	}
}

// TestConformancePageRank: identical rank vectors across engines up to
// floating-point reassociation.
func TestConformancePageRank(t *testing.T) {
	c := randomCSR(29, 3000)
	results := map[string][]float64{}
	for _, name := range conformanceEngines {
		ctx, sys, g, _ := sysOn(t, name, c)
		var rank []float64
		ctx.Run("main", func(p exec.Proc) {
			rank = algo.Must(algo.PageRank(sys, p, g, 1e-6, 20))
		})
		results[name] = rank
	}
	base := results["blaze"]
	for _, name := range conformanceEngines[1:] {
		rank := results[name]
		for v := range base {
			if math.Abs(rank[v]-base[v]) > 1e-6*math.Max(1, math.Abs(base[v])) {
				t.Fatalf("%s: rank[%d] = %g, blaze has %g", name, v, rank[v], base[v])
			}
		}
	}
}

// sysCached is sysOn with a page cache handed to the registry, for the
// cache-enabled conformance leg.
func sysCached(t *testing.T, name string, c *graph.CSR, pc *pagecache.Cache) (exec.Context, algo.System, *engine.Graph, *engine.Graph) {
	t.Helper()
	ctx := exec.NewSim()
	out := engine.FromCSR(ctx, "conf", c, 1, ssd.OptaneSSD, nil, nil)
	in := engine.FromCSR(ctx, "conf.t", c.Transpose(), 1, ssd.OptaneSSD, nil, nil)
	sys, err := registry.New(name, ctx, registry.Options{
		Edges:     c.E,
		Workers:   4,
		NumDev:    1,
		Profile:   ssd.OptaneSSD,
		PageCache: pc,
	})
	if err != nil {
		t.Fatalf("registry.New(%q): %v", name, err)
	}
	return ctx, sys, out, in
}

// TestConformanceCached: the page cache must be observationally free on
// results. Every engine run with a covering page cache must produce the
// same BFS depths, the same WCC partition, and (bit-for-bit) the same
// PageRank vector as its own cache-off run — serving a page from DRAM may
// only change modeled timing, never the bytes the algorithm sees. The
// blaze engines must also actually exercise the cache (hits on the repeat
// queries); engines that ignore the option (flashgraph has its own cache,
// graphene and inmem take no cache) must leave it untouched.
func TestConformanceCached(t *testing.T) {
	c := randomCSR(21, 1200)
	refDepth := algo.RefBFSDepth(c, 0)
	refWCC := algo.RefWCC(c)
	for _, name := range conformanceEngines {
		run := func(pc *pagecache.Cache) ([]int64, []uint32, []float64) {
			var parent []int64
			var ids []uint32
			var rank []float64
			var ctx exec.Context
			var sys algo.System
			var g, in *engine.Graph
			if pc != nil {
				ctx, sys, g, in = sysCached(t, name, c, pc)
			} else {
				ctx, sys, g, in = sysOn(t, name, c)
			}
			ctx.Run("main", func(p exec.Proc) {
				parent = algo.Must(algo.BFS(sys, p, g, 0))
				ids = algo.Must(algo.WCC(sys, p, g, in))
				rank = algo.Must(algo.PageRank(sys, p, g, 1e-6, 10))
			})
			return parent, ids, rank
		}
		plainParent, plainIDs, plainRank := run(nil)
		pc := pagecache.New(1 << 30) // covers the conformance graphs
		cacheParent, cacheIDs, cacheRank := run(pc)

		if _, ok := algo.CheckParents(c, 0, cacheParent, refDepth); !ok {
			t.Errorf("%s: invalid BFS forest with page cache", name)
		}
		for v := range plainParent {
			if plainParent[v] != cacheParent[v] {
				t.Errorf("%s: parent[%d] = %d uncached, %d cached", name, v, plainParent[v], cacheParent[v])
				break
			}
		}
		if !algo.SamePartition(cacheIDs, refWCC) {
			t.Errorf("%s: WCC partition differs from union-find with page cache", name)
		}
		for v := range plainIDs {
			if plainIDs[v] != cacheIDs[v] {
				t.Errorf("%s: wcc[%d] = %d uncached, %d cached", name, v, plainIDs[v], cacheIDs[v])
				break
			}
		}
		for v := range plainRank {
			if plainRank[v] != cacheRank[v] {
				t.Errorf("%s: rank[%d] = %g uncached, %g cached (must be bit-identical)",
					name, v, plainRank[v], cacheRank[v])
				break
			}
		}
		st := pc.StatsDetail()
		switch name {
		case "blaze", "blaze-sync":
			if st.Hits == 0 {
				t.Errorf("%s: covering cache recorded no hits on repeat queries", name)
			}
		default:
			if st.Hits+st.Misses != 0 {
				t.Errorf("%s: engine without cache support touched the cache: %+v", name, st)
			}
		}
	}
}

// TestConformanceTraced: tracing must be observationally free. Every engine
// run with a live tracer attached must produce exactly the same BFS parent
// array AND the same virtual makespan as the untraced run — both on a clean
// device and while transient faults trigger the retry path (which emits
// dev-retry instants). Any divergence means trace emission called into the
// scheduler and perturbed the modeled timeline.
func TestConformanceTraced(t *testing.T) {
	c := randomCSR(13, 900)
	transient := fault.Policy{Seed: 4, TransientRate: 0.2, TransientFails: 1}.DeviceOptions()
	cases := []struct {
		label string
		opts  []ssd.DeviceOptions
	}{
		{"clean", nil},
		{"transient", []ssd.DeviceOptions{transient}},
	}
	for _, tc := range cases {
		for _, name := range conformanceEngines {
			run := func(tr *trace.Tracer) ([]int64, int64) {
				ctx, sys, g, _ := sysTraced(t, name, c, tr, tc.opts...)
				var parent []int64
				ctx.Run("main", func(p exec.Proc) {
					parent = algo.Must(algo.BFS(sys, p, g, 0))
				})
				return parent, ctx.(*exec.Sim).End
			}
			plain, plainEnd := run(nil)
			tr := trace.New(trace.Config{})
			traced, tracedEnd := run(tr)
			if len(plain) != len(traced) {
				t.Fatalf("%s/%s: result length changed under tracing", tc.label, name)
			}
			for v := range plain {
				if plain[v] != traced[v] {
					t.Errorf("%s/%s: parent[%d] = %d untraced, %d traced", tc.label, name, v, plain[v], traced[v])
					break
				}
			}
			if plainEnd != tracedEnd {
				t.Errorf("%s/%s: tracing perturbed the makespan: %d ns untraced, %d ns traced",
					tc.label, name, plainEnd, tracedEnd)
			}
			if got := tr.Collect().Events(); got == 0 {
				t.Errorf("%s/%s: traced run collected no events", tc.label, name)
			}
		}
	}
}

// TestConformanceFaults: with every page permanently unreadable, each
// out-of-core engine must return the device error through the query (no
// panic, no hang); the in-core engine performs no IO and must succeed.
func TestConformanceFaults(t *testing.T) {
	c := randomCSR(5, 600)
	opts := fault.Policy{Seed: 9, PermanentRate: 1}.DeviceOptions()
	for _, name := range conformanceEngines {
		ctx, sys, g, _ := sysOn(t, name, c, opts)
		var err error
		ctx.Run("main", func(p exec.Proc) {
			_, err = algo.BFS(sys, p, g, 0)
		})
		if name == "inmem" {
			if err != nil {
				t.Errorf("inmem: unexpected error under device faults: %v", err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: BFS succeeded with every page permanently faulted", name)
		}
	}
}
