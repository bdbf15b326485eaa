package engine

import (
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"blaze/gen"
	"blaze/internal/exec"
	"blaze/internal/fault"
	"blaze/internal/frontier"
	"blaze/internal/graph"
	"blaze/internal/metrics"
	"blaze/internal/pagecache"
	"blaze/internal/ssd"
)

// testCSR is the engine tests' graph: RMAT, 4096 vertices, 60000 edges.
func testCSR() *graph.CSR {
	p := gen.Preset{Kind: gen.KindRMAT, A: 0.57, B: 0.19, C: 0.19, Seed: 11, V: 4096, E: 60000}
	src, dst := p.Generate()
	return graph.MustBuild(p.V, src, dst)
}

func testGraph(ctx exec.Context, numDev int, stats *metrics.IOStats) (*Graph, *graph.CSR) {
	c := testCSR()
	return FromCSR(ctx, "test", c, numDev, ssd.OptaneSSD, stats, nil), c
}

// neighbors lists v's destinations in adjacency order.
func neighbors(c *graph.CSR, v uint32) []uint32 {
	out := make([]uint32, 0, c.Degree(v))
	for i := c.Offset(v); i < c.Offset(v)+int64(c.Degree(v)); i++ {
		out = append(out, graph.GetEdge(c.Adj, i))
	}
	return out
}

// invRow is one row of TestEdgeMapInvariance: a graph source, device count,
// configuration, fault policy, cache and value type under one backend.
type invRow struct {
	real    bool
	file    bool // the adjacency is read from a file, not memory
	devs    int
	variant string          // names cfg; "" is DefaultConfig
	cfg     func(c *Config) // nil keeps DefaultConfig
	faults  *fault.Policy   // non-nil wraps every device, even a zero policy
	cache   bool            // a covering page cache, warm on the second pass
	val     string          // "" is int64, else "float32" or "uint64"
	twin    string          // a Sim row this one must match in makespan
}

// name is the row's subtest name: backend/source/devices, then whatever
// the row sets, e.g. "sim/mem/2dev/bins-1" or "real/file/2dev/transient".
func (r invRow) name() string {
	parts := []string{"sim", "mem", strconv.Itoa(r.devs) + "dev"}
	if r.real {
		parts[0] = "real"
	}
	if r.file {
		parts[1] = "file"
	}
	switch {
	case r.faults == nil:
	case r.faults.TransientRate > 0:
		parts = append(parts, "transient")
	default:
		parts = append(parts, "zero-faults")
	}
	if r.cache {
		parts = append(parts, "cache")
	}
	for _, s := range []string{r.variant, r.val} {
		if s != "" {
			parts = append(parts, s)
		}
	}
	return strings.Join(parts, "/")
}

// TestEdgeMapInvariance runs in-degree counting — a full-frontier EdgeMap
// whose every edge sends 1 — twice per row, and requires on every pass
// that the sums are exact whatever the backend, source, device count,
// configuration, faults, cache or value type, and that the devices read
// every page once (none on a covering cache's warm second pass). Transient
// faults are retried and surface no error; a Sim row with a twin takes
// exactly the twin's virtual time (a rerun is deterministic, a zero fault
// policy is free).
func TestEdgeMapInvariance(t *testing.T) {
	transient := &fault.Policy{Seed: 3, TransientRate: 0.2, TransientFails: 1}
	procs := func(s, g int) func(*Config) {
		return func(c *Config) { c.ScatterProcs, c.GatherProcs = s, g }
	}
	rows := []invRow{
		{devs: 1},
		{devs: 1, variant: "rerun", twin: "sim/mem/1dev"},
		{devs: 1, val: "float32"},
		{devs: 1, val: "uint64"},
		{devs: 1, faults: transient},
		{devs: 1, cache: true},
		{devs: 2},
		{devs: 2, faults: &fault.Policy{}, twin: "sim/mem/2dev"},
		{devs: 2, variant: "1scatter-1gather", cfg: procs(1, 1)},
		{devs: 2, variant: "15scatter-1gather", cfg: procs(15, 1)},
		{devs: 2, variant: "bins-1", cfg: func(c *Config) { c.BinCount = 1 }},
		{devs: 2, variant: "bins-65536", cfg: func(c *Config) { c.BinCount = 65536 }},
		{devs: 2, variant: "binspace-min", cfg: func(c *Config) { c.BinSpaceBytes = 1 }},
		{devs: 2, variant: "merge-1", cfg: func(c *Config) { c.MaxMergePages = 1 }},
		{devs: 2, variant: "iobudget-32pages", cfg: func(c *Config) { c.IOBufferBytes = 32 * ssd.PageSize }},
		{devs: 4},
		{devs: 8},
		{file: true, devs: 1},
		{file: true, devs: 3, variant: "4scatter-4gather", cfg: procs(4, 4)},
		{file: true, devs: 3, cache: true},
		{real: true, devs: 1},
		{real: true, devs: 2, val: "float32"},
		{real: true, devs: 2, faults: transient},
		{real: true, devs: 4, cache: true},
		{real: true, file: true, devs: 2, variant: "4scatter-4gather", cfg: procs(4, 4)},
		{real: true, file: true, devs: 2, faults: transient},
	}
	c := testCSR()
	base := filepath.Join(t.TempDir(), "g")
	if err := graph.WriteFiles(c, nil, base); err != nil {
		t.Fatal(err)
	}
	want := make([]int64, c.V)
	for i := int64(0); i < c.E; i++ {
		want[graph.GetEdge(c.Adj, i)]++
	}
	makespans := map[string]int64{}
	for _, r := range rows {
		t.Run(r.name(), func(t *testing.T) {
			var ctx exec.Context = exec.NewSim()
			if r.real {
				ctx = exec.NewReal()
			}
			stats := metrics.NewIOStats(r.devs)
			var opts []ssd.DeviceOptions
			if r.faults != nil {
				opts = append(opts, r.faults.DeviceOptions())
			}
			var g *Graph
			if r.file {
				var err error
				if g, err = FromFiles(ctx, "inv", base+".gr.index", base+".gr.adj.0", r.devs, ssd.OptaneSSD, stats, nil, opts...); err != nil {
					t.Fatal(err)
				}
				defer g.Close()
			} else {
				g = FromCSR(ctx, "inv", c, r.devs, ssd.OptaneSSD, stats, nil, opts...)
			}
			conf := DefaultConfig(c.E)
			conf.Stats = stats
			if r.cfg != nil {
				r.cfg(&conf)
			}
			if r.cache {
				conf.PageCache = pagecache.New(1 << 30)
			}
			var run func(exec.Proc) ([]int64, error)
			switch r.val {
			case "":
				run = func(p exec.Proc) ([]int64, error) { return edgeSums[int64](ctx, p, g, conf) }
			case "float32":
				run = func(p exec.Proc) ([]int64, error) { return edgeSums[float32](ctx, p, g, conf) }
			case "uint64":
				run = func(p exec.Proc) ([]int64, error) { return edgeSums[uint64](ctx, p, g, conf) }
			}
			ctx.Run("main", func(p exec.Proc) {
				for pass := 0; pass < 2; pass++ {
					before := stats.PagesRead()
					got, err := run(p)
					if err != nil {
						t.Errorf("pass %d: %v", pass, err)
						return
					}
					for v := range want {
						if got[v] != want[v] {
							t.Errorf("pass %d: in-degree(%d) = %d, want %d", pass, v, got[v], want[v])
							return
						}
					}
					wantPages := c.NumPages()
					if r.cache && pass == 1 {
						wantPages = 0
					}
					if read := stats.PagesRead() - before; read != wantPages {
						t.Errorf("pass %d: devices read %d pages, want %d", pass, read, wantPages)
					}
				}
			})
			if r.faults != nil && r.faults.TransientRate > 0 && stats.Retries() == 0 {
				t.Error("transient faults at rate 0.2 triggered no retries")
			}
			if stats.ReadErrors() != 0 {
				t.Errorf("ReadErrors = %d, want 0", stats.ReadErrors())
			}
			if sim, ok := ctx.(*exec.Sim); ok {
				makespans[r.name()] = sim.End
				if r.twin != "" && (sim.End != makespans[r.twin] || sim.End == 0) {
					t.Errorf("makespan %d, want its twin %s's %d", sim.End, r.twin, makespans[r.twin])
				}
			}
		})
	}
}

// edgeSums runs one full-frontier EdgeMap over g sending V(1) along every
// edge and returns the sums per destination: the in-degrees.
func edgeSums[V int64 | float32 | uint64](ctx exec.Context, p exec.Proc, g *Graph, conf Config) ([]int64, error) {
	acc := make([]V, g.CSR.V)
	_, _, err := EdgeMap(ctx, p, g, frontier.All(g.CSR.V),
		func(s, d uint32) V { return 1 },
		func(d uint32, v V) bool { acc[d] += v; return false },
		func(d uint32) bool { return true },
		false, conf)
	got := make([]int64, len(acc))
	for v, x := range acc {
		got[v] = int64(x)
	}
	return got, err
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
		for _, d := range neighbors(c, s) {
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
	stats := metrics.NewIOStats(1)
	g, c := testGraph(ctx, 1, stats)
	conf := DefaultConfig(c.E)
	conf.Stats = stats
	ctx.Run("main", func(p exec.Proc) {
		out, _, _ := EdgeMap(ctx, p, g, frontier.NewVertexSubset(c.V),
			func(s, d uint32) int64 { return 0 },
			func(d uint32, v int64) bool { return false },
			func(d uint32) bool { return true },
			true, conf)
		if out == nil || !out.Empty() {
			t.Error("empty frontier should yield empty output")
		}
		if n := stats.PagesRead(); n != 0 {
			t.Errorf("empty frontier read %d pages", n)
		}
	})
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
