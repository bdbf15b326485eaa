package blaze_test

import (
	"reflect"
	"sync/atomic"
	"testing"

	"blaze"
	"blaze/algo"
	"blaze/gen"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/metrics"
	"blaze/internal/registry"
	"blaze/internal/ssd"
)

// bfsParents runs BFS through the public API and returns the parent array.
func bfsParents(rt *blaze.Runtime, n uint32, src, dst []uint32, root uint32) []int32 {
	parent := make([]int32, n)
	rt.Run(func(c *blaze.Ctx) {
		g, err := c.GraphFromEdges("t", n, src, dst)
		if err != nil {
			panic(err)
		}
		for i := range parent {
			parent[i] = -1
		}
		parent[root] = int32(root)
		f := blaze.Single(n, root)
		for !f.Empty() {
			f, err = blaze.EdgeMap(c, g, f,
				func(s, d uint32) uint32 { return s },
				func(d uint32, v uint32) bool {
					if parent[d] == -1 {
						parent[d] = int32(v)
						return true
					}
					return false
				},
				func(d uint32) bool { return parent[d] == -1 },
				true)
			if err != nil {
				panic(err)
			}
		}
	})
	return parent
}

func TestPublicAPIQuickstartBothBackends(t *testing.T) {
	src := []uint32{0, 0, 1, 2, 3, 4}
	dst := []uint32{1, 2, 3, 4, 5, 5}
	for _, opts := range [][]blaze.Option{
		{blaze.WithComputeWorkers(4)},
		{blaze.WithComputeWorkers(4), blaze.WithSimulatedTime()},
	} {
		parent := bfsParents(blaze.New(opts...), 7, src, dst, 0)
		want := []int32{0, 0, 0, 1, 2, 3, -1}
		for v := range want {
			if parent[v] != want[v] {
				t.Errorf("parent[%d] = %d, want %d", v, parent[v], want[v])
			}
		}
	}
}

func TestRuntimeMetricsExposed(t *testing.T) {
	rt := blaze.New(blaze.WithSimulatedTime(), blaze.WithComputeWorkers(4), blaze.WithTimeline(1e6))
	p, _ := gen.PresetByShort("r2")
	p = p.Scaled(50000)
	rt.Run(func(c *blaze.Ctx) {
		g, _ := c.GraphFromPreset(p)
		acc := make([]int64, g.NumVertices())
		c.RegisterAlgoMemory(int64(g.NumVertices()) * 8)
		blaze.EdgeMap(c, g, blaze.All(g.NumVertices()),
			func(s, d uint32) int64 { return 1 },
			func(d uint32, v int64) bool { acc[d] += v; return false },
			func(d uint32) bool { return true },
			false)
	})
	if rt.TotalReadBytes() == 0 {
		t.Error("no read bytes recorded")
	}
	if rt.ElapsedNs() == 0 {
		t.Error("no elapsed time recorded")
	}
	if rt.AvgReadBandwidth() <= 0 || rt.AvgReadBandwidth() > rt.MaxReadBandwidth()*1.2 {
		t.Errorf("implausible bandwidth %.2e", rt.AvgReadBandwidth())
	}
	if len(rt.BandwidthSeries()) == 0 {
		t.Error("timeline enabled but empty")
	}
	if rt.MemoryBytes() <= 0 {
		t.Error("memory accounting empty")
	}
	found := map[string]bool{}
	for _, it := range rt.MemoryItems() {
		found[it.Name] = true
	}
	for _, want := range []string{"graph-index", "io-buffers", "bin-space", "algo-arrays"} {
		if !found[want] {
			t.Errorf("memory items missing %q", want)
		}
	}
}

func TestRuntimeOptionsApply(t *testing.T) {
	// Exercise every option constructor; correctness is covered elsewhere,
	// here we check they compose without conflict.
	rt := blaze.New(
		blaze.WithSimulatedTime(),
		blaze.WithComputeWorkers(6),
		blaze.WithBinningRatio(0.25),
		blaze.WithBinCount(64),
		blaze.WithBinSpace(1<<20),
		blaze.WithIOBufferSpace(1<<20),
		blaze.WithDevices(2, blaze.NANDSSD()),
		blaze.WithTimeline(1e6),
	)
	parent := bfsParents(rt, 7, []uint32{0, 1}, []uint32{1, 2}, 0)
	if parent[2] != 1 {
		t.Errorf("parent[2] = %d, want 1", parent[2])
	}
	if rt.MaxReadBandwidth() != 2*blaze.NANDSSD().RandBytesPerSec {
		t.Error("MaxReadBandwidth ignores device count or profile")
	}
}

// TestScaleoutPageRankPublicAPI: WithScaleout routes the built-in queries
// onto the destination-partitioned cluster; the ranks must match the
// single-machine run and the IO stats must cover every machine's array.
func TestScaleoutPageRankPublicAPI(t *testing.T) {
	p, _ := gen.PresetByShort("r2")
	p = p.Scaled(30000)
	run := func(opts ...blaze.Option) []float64 {
		rt := blaze.New(append([]blaze.Option{
			blaze.WithSimulatedTime(), blaze.WithComputeWorkers(4),
		}, opts...)...)
		var ranks []float64
		rt.Run(func(c *blaze.Ctx) {
			g, _ := c.GraphFromPreset(p)
			var err error
			ranks, _, err = c.PageRank(g, 1e-9, blaze.Convergence{MaxIters: 5})
			if err != nil {
				panic(err)
			}
		})
		return ranks
	}
	serial := run()
	scaled := run(blaze.WithScaleout(4), blaze.WithNetwork(100e9/8, 5_000))
	if len(scaled) != len(serial) {
		t.Fatalf("rank lengths differ: %d vs %d", len(scaled), len(serial))
	}
	for v := range serial {
		d := scaled[v] - serial[v]
		if d < -1e-6 || d > 1e-6 {
			t.Fatalf("rank[%d] = %g on 4 machines, %g serial", v, scaled[v], serial[v])
		}
	}
}

func TestLoadGraphFromFiles(t *testing.T) {
	// Round-trip through the on-disk format via the public API.
	dir := t.TempDir()
	p, _ := gen.PresetByShort("tw")
	p = p.Scaled(100000)
	src, dst := p.Generate()

	// Write with one runtime...
	rtW := blaze.New(blaze.WithComputeWorkers(2))
	var wantIn int64
	rtW.Run(func(c *blaze.Ctx) {
		g, err := c.GraphFromEdges("w", p.V, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.SaveGraph(g, dir+"/tw"); err != nil {
			t.Fatal(err)
		}
		wantIn = g.NumEdges()
	})

	// ...load and traverse with another.
	rt := blaze.New(blaze.WithComputeWorkers(4))
	rt.Run(func(c *blaze.Ctx) {
		g, err := c.LoadGraph("tw", dir+"/tw.gr.index", dir+"/tw.gr.adj.0")
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		if g.NumEdges() != wantIn {
			t.Fatalf("loaded %d edges, want %d", g.NumEdges(), wantIn)
		}
		// Gather runs on several procs at once (never twice for one
		// destination), so a counter shared across destinations is atomic.
		var count atomic.Int64
		blaze.EdgeMap(c, g, blaze.All(g.NumVertices()),
			func(s, d uint32) int64 { return 1 },
			func(d uint32, v int64) bool { count.Add(v); return false },
			func(d uint32) bool { return true },
			false)
		if count.Load() != wantIn {
			t.Fatalf("edge scan through file-backed graph saw %d edges, want %d", count.Load(), wantIn)
		}
	})
}

func TestVertexMapPublic(t *testing.T) {
	rt := blaze.New(blaze.WithComputeWorkers(2))
	rt.Run(func(c *blaze.Ctx) {
		out := blaze.VertexMap(c, blaze.All(50), func(v uint32) bool { return v < 10 })
		if out.Count() != 10 {
			t.Errorf("VertexMap kept %d, want 10", out.Count())
		}
	})
}

func TestDeviceProfileAccessors(t *testing.T) {
	if blaze.OptaneSSD().RandBytesPerSec <= blaze.NANDSSD().RandBytesPerSec {
		t.Error("Optane should be faster than NAND at random reads")
	}
	half := blaze.OptaneSSD().Scale(0.5)
	if half.RandBytesPerSec != blaze.OptaneSSD().RandBytesPerSec/2 {
		t.Error("profile scaling broken")
	}
}

// TestEdgeMapSizesBinsLikeTheTools: the public API and the registry (what
// every cmd tool goes through) assemble the same engine for the same graph.
// Above the 4 MB floor bin space follows the loaded graph's edge count on
// both paths, so one dense EdgeMap reports the same model time, the same
// bytes read and the same bin-space footprint.
func TestEdgeMapSizesBinsLikeTheTools(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: generates a 5M-edge graph twice")
	}
	p, _ := gen.PresetByShort("r2")
	p = p.Scaled(400)
	scatter := func(s, d uint32) float64 { return 1 }
	cond := func(d uint32) bool { return true }
	binSpace := func(items []blaze.MemItem) int64 {
		for _, it := range items {
			if it.Name == "bin-space" {
				return it.Bytes
			}
		}
		return 0
	}

	rt := blaze.New(blaze.WithSimulatedTime(), blaze.WithComputeWorkers(4))
	var apiSum float64
	rt.Run(func(c *blaze.Ctx) {
		g, _ := c.GraphFromPreset(p)
		if g.NumEdges() <= 4<<20 {
			t.Fatalf("graph has %d edges, need more than the 4 MB bin-space floor", g.NumEdges())
		}
		if _, err := blaze.EdgeMap(c, g, blaze.All(g.NumVertices()), scatter,
			func(d uint32, v float64) bool { apiSum += v; return false }, cond, false); err != nil {
			t.Fatal(err)
		}
	})

	ctx := exec.NewSim()
	stats, mem := metrics.NewIOStats(1), metrics.NewMemAccount()
	g, _ := engine.BuildPreset(ctx, p, 1, ssd.OptaneSSD, stats, nil)
	sys, err := registry.New("blaze", ctx, registry.Options{Edges: g.NumEdges(), Workers: 4, Stats: stats, Mem: mem})
	if err != nil {
		t.Fatal(err)
	}
	var toolSum float64
	ctx.Run("main", func(p exec.Proc) {
		_, err = sys.EdgeMap(p, g, blaze.All(g.NumVertices()), algo.EdgeFuncs{Scatter: scatter,
			Gather: func(d uint32, v float64) bool { toolSum += v; return false }, Cond: cond}, false)
	})
	if err != nil {
		t.Fatal(err)
	}

	if apiSum != toolSum || int64(apiSum) != g.NumEdges() {
		t.Errorf("edges seen: API %.0f, registry %.0f, graph %d", apiSum, toolSum, g.NumEdges())
	}
	if rt.ElapsedNs() != ctx.End {
		t.Errorf("model time: API %d ns, registry %d ns", rt.ElapsedNs(), ctx.End)
	}
	if rt.TotalReadBytes() != stats.TotalBytes() {
		t.Errorf("read bytes: API %d, registry %d", rt.TotalReadBytes(), stats.TotalBytes())
	}
	var toolItems []blaze.MemItem
	for _, it := range mem.Items() {
		toolItems = append(toolItems, blaze.MemItem{Name: it.Name, Bytes: it.Bytes})
	}
	if a, r := binSpace(rt.MemoryItems()), binSpace(toolItems); a != r || a <= 4<<20 {
		t.Errorf("bin-space: API %d bytes, registry %d bytes, want equal and above the 4 MB floor", a, r)
	}
}

// concurrentAnswers holds what TestRunConcurrent's mixed workload computes
// — BFS depths from two sources and one SpMV — each body writing its own
// slot. Both answers are independent of the order records reach a gather
// (which parent claims a vertex first is not): a depth is the round number,
// and the SpMV terms are multiples of 0.5 whose sums are exact.
type concurrentAnswers struct {
	depth [2][]int32
	y     []float64
}

func (a *concurrentAnswers) bfs(slot int, root uint32) func(*blaze.Ctx, *blaze.Graph) error {
	return func(c *blaze.Ctx, g *blaze.Graph) error {
		n := g.NumVertices()
		depth := make([]int32, n)
		for i := range depth {
			depth[i] = -1
		}
		depth[root] = 0
		a.depth[slot] = depth
		f := blaze.Single(n, root)
		for level := int32(1); !f.Empty(); level++ {
			var err error
			f, err = blaze.EdgeMap(c, g, f,
				func(s, d uint32) uint32 { return s },
				func(d uint32, _ uint32) bool {
					if depth[d] == -1 {
						depth[d] = level
						return true
					}
					return false
				},
				func(d uint32) bool { return depth[d] == -1 },
				true)
			if err != nil {
				return err
			}
		}
		return nil
	}
}

func (a *concurrentAnswers) spmv(c *blaze.Ctx, g *blaze.Graph) error {
	a.y = make([]float64, g.NumVertices())
	_, err := blaze.EdgeMap(c, g, blaze.All(g.NumVertices()),
		func(s, d uint32) float64 { return float64(s%7) + 0.5 },
		func(d uint32, v float64) bool { a.y[d] += v; return false },
		func(d uint32) bool { return true },
		false)
	return err
}

// TestRunConcurrent: three mixed queries sharing one session answer bit for
// bit what the same bodies answer run one at a time; a fixed interleave seed
// reproduces every per-query report; and the device reads attributed to the
// queries add up to the runtime's total.
func TestRunConcurrent(t *testing.T) {
	p, _ := gen.PresetByShort("r2")
	p = p.Scaled(20000)
	load := func(c *blaze.Ctx) (*blaze.Graph, error) {
		g, _ := c.GraphFromPreset(p)
		return g, nil
	}
	newRT := func() *blaze.Runtime {
		return blaze.New(blaze.WithSimulatedTime(), blaze.WithComputeWorkers(4),
			blaze.WithPageCache(1<<20), blaze.WithInterleaveSeed(7))
	}

	var serial concurrentAnswers
	for _, body := range []func(*blaze.Ctx, *blaze.Graph) error{serial.bfs(0, 0), serial.bfs(1, 1), serial.spmv} {
		newRT().Run(func(c *blaze.Ctx) {
			g, _ := load(c)
			if err := body(c, g); err != nil {
				t.Fatal(err)
			}
		})
	}

	concurrent := func() (*blaze.Runtime, concurrentAnswers, []blaze.QueryReport) {
		rt := newRT()
		var a concurrentAnswers
		reports, err := rt.RunConcurrent(load, a.bfs(0, 0), a.bfs(1, 1), a.spmv)
		if err != nil {
			t.Fatal(err)
		}
		return rt, a, reports
	}
	rt, conc, reports := concurrent()
	if !reflect.DeepEqual(serial, conc) {
		t.Error("concurrent answers differ from the serial runs'")
	}
	if len(reports) != 3 {
		t.Fatalf("%d reports for 3 queries", len(reports))
	}
	var attributed int64
	for i, r := range reports {
		if r.Err != nil || r.ElapsedNs <= 0 {
			t.Errorf("query %d report: %+v", i, r)
		}
		attributed += r.DeviceReadBytes
	}
	if attributed != rt.TotalReadBytes() || attributed == 0 {
		t.Errorf("per-query device reads sum to %d, runtime read %d", attributed, rt.TotalReadBytes())
	}
	if _, _, again := concurrent(); !reflect.DeepEqual(reports, again) {
		t.Errorf("same interleave seed, different reports:\n%+v\n%+v", reports, again)
	}
}
