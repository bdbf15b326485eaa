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

func testGraph(ctx exec.Context, numDev int, stats *metrics.IOStats) (*Graph, *graph.CSR) {
	p := gen.Preset{Kind: gen.KindRMAT, A: 0.57, B: 0.19, C: 0.19, Seed: 11, V: 4096, E: 60000}
	src, dst := p.Generate()
	c := graph.MustBuild(p.V, src, dst)
	return FromCSR(ctx, "test", c, numDev, ssd.OptaneSSD, stats, nil), c
}

// inDegreeViaEdgeMap computes in-degrees with a full-frontier EdgeMap and
// compares against a direct count — exercising IO, page scanning, binning,
// and gathering end to end.
func runInDegree(t *testing.T, ctx exec.Context, numDev int, cfg func(Config) Config) {
	t.Helper()
	stats := metrics.NewIOStats(numDev)
	g, c := testGraph(ctx, numDev, stats)
	conf := DefaultConfig(c.E)
	conf.Stats = stats
	if cfg != nil {
		conf = cfg(conf)
	}
	got := make([]int64, c.V)
	var st Stats
	ctx.Run("main", func(p exec.Proc) {
		_, st, _ = EdgeMap(ctx, p, g, frontier.All(c.V),
			func(s, d uint32) int64 { return 1 },
			func(d uint32, v int64) bool { got[d] += v; return false },
			func(d uint32) bool { return true },
			false, conf)
	})
	want := make([]int64, c.V)
	for i := int64(0); i < c.E; i++ {
		want[graph.GetEdge(c.Adj, i)]++
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("in-degree(%d) = %d, want %d", v, got[v], want[v])
		}
	}
	if st.EdgesScanned != c.E {
		t.Errorf("EdgesScanned = %d, want %d", st.EdgesScanned, c.E)
	}
	if st.Records != c.E {
		t.Errorf("Records = %d, want %d", st.Records, c.E)
	}
	if st.PagesRead != c.NumPages() {
		t.Errorf("PagesRead = %d, want %d", st.PagesRead, c.NumPages())
	}
	if stats.TotalBytes() != c.NumPages()*ssd.PageSize {
		t.Errorf("device bytes = %d, want %d", stats.TotalBytes(), c.NumPages()*ssd.PageSize)
	}
}

func TestEdgeMapFullFrontierSim(t *testing.T)  { runInDegree(t, exec.NewSim(), 1, nil) }
func TestEdgeMapFullFrontierReal(t *testing.T) { runInDegree(t, exec.NewReal(), 1, nil) }

func TestEdgeMapMultiDevice(t *testing.T) {
	for _, nd := range []int{2, 4, 8} {
		runInDegree(t, exec.NewSim(), nd, nil)
	}
}

func TestEdgeMapConfigVariants(t *testing.T) {
	for _, mod := range []func(Config) Config{
		func(c Config) Config { c.ScatterProcs, c.GatherProcs = 1, 1; return c },
		func(c Config) Config { c.ScatterProcs, c.GatherProcs = 15, 1; return c },
		func(c Config) Config { c.BinCount = 1; return c },
		func(c Config) Config { c.BinCount = 65536; return c },
		func(c Config) Config { c.BinSpaceBytes = 1; return c }, // minimum buffers
		func(c Config) Config { c.MaxMergePages = 1; return c },
		func(c Config) Config { c.IOBufferBytes = 8 * ssd.PageSize * 4; return c },
	} {
		runInDegree(t, exec.NewSim(), 2, mod)
	}
}

// TestEdgeMapSparseFrontier verifies selective scheduling: only pages
// holding frontier vertices' edges are read, and cond prunes records.
func TestEdgeMapSparseFrontier(t *testing.T) {
	ctx := exec.NewSim()
	stats := metrics.NewIOStats(1)
	g, c := testGraph(ctx, 1, stats)
	conf := DefaultConfig(c.E)
	conf.Stats = stats

	f := frontier.NewVertexSubset(c.V)
	sources := []uint32{1, 17, 100, 2000}
	for _, v := range sources {
		f.Add(v)
	}
	visited := make([]bool, c.V)
	var out *frontier.VertexSubset
	ctx.Run("main", func(p exec.Proc) {
		out, _, _ = EdgeMap(ctx, p, g, f,
			func(s, d uint32) int64 { return int64(s) },
			func(d uint32, v int64) bool {
				if !visited[d] {
					visited[d] = true
					return true
				}
				return false
			},
			func(d uint32) bool { return !visited[d] },
			true, conf)
	})
	// The output frontier must equal the distinct out-neighbors.
	want := map[uint32]bool{}
	for _, s := range sources {
		for _, d := range c.Neighbors(s) {
			want[d] = true
		}
	}
	out.Seal()
	if out.Count() != int64(len(want)) {
		t.Errorf("output frontier size %d, want %d", out.Count(), len(want))
	}
	for d := range want {
		if !out.Has(d) {
			t.Errorf("output frontier missing %d", d)
		}
	}
	// Selective IO: far fewer pages than the whole graph.
	if stats.PagesRead() >= c.NumPages() {
		t.Errorf("sparse frontier read %d pages of %d; no selectivity", stats.PagesRead(), c.NumPages())
	}
}

func TestEdgeMapEmptyFrontier(t *testing.T) {
	ctx := exec.NewSim()
	g, c := testGraph(ctx, 1, nil)
	conf := DefaultConfig(c.E)
	ctx.Run("main", func(p exec.Proc) {
		out, st, _ := EdgeMap(ctx, p, g, frontier.NewVertexSubset(c.V),
			func(s, d uint32) int64 { return 0 },
			func(d uint32, v int64) bool { return false },
			func(d uint32) bool { return true },
			true, conf)
		if out == nil || !out.Empty() {
			t.Error("empty frontier should yield empty output")
		}
		if st.PagesRead != 0 {
			t.Errorf("empty frontier read %d pages", st.PagesRead)
		}
	})
}

// TestEdgeMapDeterministicVirtualTime runs the same EdgeMap twice under Sim
// and demands identical makespans — the property every figure depends on.
func TestEdgeMapDeterministicVirtualTime(t *testing.T) {
	run := func() int64 {
		ctx := exec.NewSim()
		g, c := testGraph(ctx, 2, nil)
		conf := DefaultConfig(c.E)
		acc := make([]int64, c.V)
		ctx.Run("main", func(p exec.Proc) {
			EdgeMap(ctx, p, g, frontier.All(c.V),
				func(s, d uint32) int64 { return 1 },
				func(d uint32, v int64) bool { acc[d] += v; return false },
				func(d uint32) bool { return true },
				false, conf)
		})
		return ctx.End
	}
	a, b := run(), run()
	if a != b || a == 0 {
		t.Errorf("virtual makespans differ or zero: %d vs %d", a, b)
	}
}

// TestEdgeMapSaturatesOptane checks the paper's headline property: with the
// default 8+8 compute procs, Blaze's average read bandwidth approaches the
// device's bandwidth on a full-frontier workload.
func TestEdgeMapSaturatesOptane(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ctx := exec.NewSim()
	stats := metrics.NewIOStats(1)
	pr := gen.Preset{Kind: gen.KindRMAT, A: 0.57, B: 0.19, C: 0.19, Seed: 4, V: 65536, E: 2_000_000}
	src, dst := pr.Generate()
	c := graph.MustBuild(pr.V, src, dst)
	g := FromCSR(ctx, "sat", c, 1, ssd.OptaneSSD, stats, nil)
	conf := DefaultConfig(c.E)
	conf.Stats = stats
	acc := make([]int64, c.V)
	ctx.Run("main", func(p exec.Proc) {
		EdgeMap(ctx, p, g, frontier.All(c.V),
			func(s, d uint32) int64 { return 1 },
			func(d uint32, v int64) bool { acc[d] += v; return false },
			func(d uint32) bool { return true },
			false, conf)
	})
	bw := float64(stats.TotalBytes()) / (float64(ctx.End) / 1e9)
	if bw < 0.85*ssd.OptaneSSD.RandBytesPerSec {
		t.Errorf("average BW %.2f GB/s below 85%% of Optane (%.2f GB/s)", bw/1e9, ssd.OptaneSSD.RandBytesPerSec/1e9)
	}
}

func TestVertexMapFilters(t *testing.T) {
	ctx := exec.NewSim()
	conf := DefaultConfig(1000)
	ctx.Run("main", func(p exec.Proc) {
		f := frontier.All(100)
		out := VertexMap(p, f, func(v uint32) bool { return v%3 == 0 }, conf)
		if out.Count() != 34 { // 0,3,...,99
			t.Errorf("VertexMap kept %d vertices, want 34", out.Count())
		}
		out.ForEach(func(v uint32) {
			if v%3 != 0 {
				t.Errorf("VertexMap kept %d", v)
			}
		})
	})
}

// MapVertices keeps what fn accepts, over the whole frontier, and charges
// vertexOp per frontier vertex split over procs — at least one.
func TestMapVerticesCost(t *testing.T) {
	for _, tc := range []struct {
		name     string
		n        uint32
		vertexOp int64
		procs    int
		wantNs   int64
		wantKept int64
	}{
		{"one proc", 100, 3, 1, 300, 34},
		{"split over procs", 100, 3, 16, 18, 34}, // 300/16 truncates
		{"zero procs count as one", 100, 3, 0, 300, 34},
		{"free vertex ops", 100, 0, 8, 0, 34},
		{"empty frontier", 0, 3, 4, 0, 0},
	} {
		ctx := exec.NewSim()
		ctx.Run("main", func(p exec.Proc) {
			before := p.Now()
			out := MapVertices(p, frontier.All(tc.n), func(v uint32) bool { return v%3 == 0 }, tc.vertexOp, tc.procs)
			if got := p.Now() - before; got != tc.wantNs {
				t.Errorf("%s: charged %d ns, want %d", tc.name, got, tc.wantNs)
			}
			if out.Count() != tc.wantKept || out.N() != tc.n {
				t.Errorf("%s: kept %d of %d, want %d of %d", tc.name, out.Count(), out.N(), tc.wantKept, tc.n)
			}
		})
	}
}

func TestWithThreadsSplit(t *testing.T) {
	c := DefaultConfig(1000)
	c = c.WithThreads(16, 0.5)
	if c.ScatterProcs != 8 || c.GatherProcs != 8 {
		t.Errorf("16@0.5 -> %d/%d, want 8/8", c.ScatterProcs, c.GatherProcs)
	}
	c = c.WithThreads(16, 15.0/16.0)
	if c.ScatterProcs != 15 || c.GatherProcs != 1 {
		t.Errorf("16@15:1 -> %d/%d, want 15/1", c.ScatterProcs, c.GatherProcs)
	}
	c = c.WithThreads(16, 0)
	if c.ScatterProcs != 1 || c.GatherProcs != 15 {
		t.Errorf("16@0 -> %d/%d, want 1/15", c.ScatterProcs, c.GatherProcs)
	}
}

func TestBuildPresetAnnotates(t *testing.T) {
	ctx := exec.NewSim()
	p := gen.Preset{Name: "x", Kind: gen.KindRMAT, A: 0.57, B: 0.19, C: 0.19, Seed: 1, V: 1024, E: 20000, Locality: 0.3}
	out, in := BuildPreset(ctx, p, 1, ssd.OptaneSSD, nil, nil)
	if out.Locality != 0.3 || in.Locality != 0.3 {
		t.Error("locality not propagated")
	}
	if out.HotFrac <= 0 || out.HotFrac > 1 {
		t.Errorf("HotFrac = %f out of range", out.HotFrac)
	}
	if out.NumEdges() != in.NumEdges() {
		t.Error("transpose edge count mismatch")
	}
}
