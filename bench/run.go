package bench

import (
	"fmt"

	"blaze/algo"
	"blaze/internal/cluster"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/metrics"
	"blaze/internal/msg"
	"blaze/internal/registry"
	"blaze/internal/trace"
)

// Queries in paper order.
var Queries = []string{"bfs", "pr", "wcc", "spmv", "bc"}

// Opts parameterizes one measured run: an engine, a query, and the engine's
// options. Run overwrites five of the options whatever the caller set:
// Edges, Stats and Mem come from the dataset and the run's own accounting,
// DevOpts is the harness-wide DeviceOpts (so engines that build their own
// devices run the same fault drill), and CacheBytes scales FlashGraph's
// cache with a paper dataset; the other
// fields reach registry.New as given, zero ones taking the registry
// defaults. A PageCache keeps its hit-rate accounting for the caller after
// the run, and a Tracer is left for the caller to collect (see TraceRun).
type Opts struct {
	System string // a registry name: "blaze", "blaze-sync", "flashgraph", ...
	Query  string // "bfs", "pr", "pr1", "wcc", "spmv", "bc"
	// PRIters caps PageRank iterations (0 = 15).
	PRIters int
	// TimelineBucketNs enables bandwidth timeline collection.
	TimelineBucketNs int64
	registry.Options
}

// Result is one measured run.
type Result struct {
	Opts      Opts
	Graph     string
	ElapsedNs int64
	ReadBytes int64
	Timeline  *metrics.Timeline
	IterBytes [][]int64
	Mem       *metrics.MemAccount
	// AlgoBytes is the query's vertex-array footprint.
	AlgoBytes int64
	Levels    int // BFS/BC level count
	// DeviceBytes is the per-device read split (device IDs are
	// machine*NumDev+dev under blaze-scaleout).
	DeviceBytes []int64
	// Net is the interconnect's counters; zero for every engine but
	// blaze-scaleout.
	Net msg.NetStats
}

// AvgBW returns the run's average read bandwidth in bytes/second — total
// read bytes over total execution time, the paper's Figure 1/8 metric.
func (r Result) AvgBW() float64 {
	if r.ElapsedNs == 0 {
		return 0
	}
	return float64(r.ReadBytes) / (float64(r.ElapsedNs) / 1e9)
}

func (o Opts) withDefaults() Opts {
	o.Options = o.Options.WithDefaults()
	if o.PRIters == 0 {
		o.PRIters = 15
	}
	return o
}

// Run executes one (system, query, dataset) measurement under a fresh
// deterministic virtual-time context and returns the result.
func Run(d *Dataset, o Opts) Result {
	o = o.withDefaults()
	ctx := exec.NewSim()
	stats := metrics.NewIOStats(o.StatDevices())
	var tl *metrics.Timeline
	if o.TimelineBucketNs > 0 {
		tl = metrics.NewTimeline(o.TimelineBucketNs)
	}
	mem := metrics.NewMemAccount()
	out, in := d.Graphs(ctx, o.NumDev, o.Profile, stats, tl)
	// WCC and BC traverse the transpose too and pay for both indexes;
	// the other queries only load the forward graph.
	if o.Query == "wcc" || o.Query == "bc" {
		mem.Set("graph-index", d.CSR.IndexBytes()+d.Tr.IndexBytes())
	} else {
		mem.Set("graph-index", d.CSR.IndexBytes())
	}

	ro := o.Options
	ro.Edges, ro.Stats, ro.Mem, ro.DevOpts = d.CSR.E, stats, mem, DeviceOpts
	// FlashGraph's page cache (1 GB on the paper's testbed) must scale
	// with the datasets, or it would swallow the scaled graphs whole
	// and erase the out-of-core behaviour under study.
	if d.Preset.PaperV > 0 {
		f := float64(d.Preset.V) / (d.Preset.PaperV * 1e6)
		ro.CacheBytes = int64(f * float64(1<<30))
	}
	sys, err := registry.New(o.System, ctx, ro)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}

	res := Result{Opts: o, Graph: d.Preset.Short, Timeline: tl, Mem: mem}
	ctx.Run("main", func(p exec.Proc) {
		res.AlgoBytes = algo.Must(runQuery(sys, p, o.Query, out, in, d.Start, o.PRIters))
	})
	if o.Query == "bc" {
		res.Levels = len(sys.IterDeviceBytes())
	}
	res.ElapsedNs = ctx.End
	res.ReadBytes = stats.TotalBytes()
	res.IterBytes = sys.IterDeviceBytes()
	res.DeviceBytes = stats.DeviceBytes()
	if cl, ok := sys.(*cluster.Cluster); ok {
		res.Net = cl.NetStats()
	}
	mem.Set("algo-arrays", res.AlgoBytes)
	return res
}

// runQuery executes the named catalogue query on sys and returns the
// footprint of the vertex arrays it allocated. It is the one query dispatch
// in this package: Run, the engine-config ablations, the cluster and in-core
// comparisons and the session bodies all come through it, each with the
// PageRank iteration cap its committed CSV was produced with ("pr1" is one
// iteration). start seeds BFS and BC.
func runQuery(sys algo.System, p exec.Proc, query string, out, in *engine.Graph, start uint32, prIters int) (algoBytes int64, err error) {
	if query == "pr1" {
		query, prIters = "pr", 1
	}
	q, ok := algo.QueryByName(query)
	if !ok {
		return 0, fmt.Errorf("bench: unknown query %q", query)
	}
	a := algo.Args{Start: start}
	if query == "pr" {
		// eps keeps the frontier dense through the measured iterations,
		// matching full-scale behaviour where PR-delta needs far more
		// iterations to converge than the scaled datasets do.
		a.Eps, a.Conv = 1e-9, algo.Convergence{MaxIters: prIters}
	}
	ans, err := q.Run(sys, p, out, in, a)
	return ans.AlgoBytes, err
}

// TraceRun executes one measurement like Run with tracing enabled and
// returns the result together with the collected trace. The run is as
// deterministic as any other sim measurement, so the emitted span stream is
// byte-stable across hosts (what the trace golden test checks).
func TraceRun(d *Dataset, o Opts) (Result, *trace.Trace) {
	t := trace.New(trace.Config{})
	o.Tracer = t
	res := Run(d, o)
	return res, t.Collect()
}
