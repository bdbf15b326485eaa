// Package cli implements the shared command-line surface of the query
// tools (cmd/bfs, cmd/pr, cmd/wcc, cmd/spmv, cmd/bc — each is Main over its
// algo.Queries entry) and of blaze-serve, mirroring the paper artifact's
// binaries:
//
//	bfs -computeWorkers 16 -startNode 0 graph.gr.index graph.gr.adj.0
//	bc  -computeWorkers 16 -startNode 0 graph.gr.index graph.gr.adj.0 \
//	    -inIndexFilename graph.tgr.index -inAdjFilenames graph.tgr.adj.0
//
// Binning options match the artifact: -binSpace (MB), -binCount,
// -binningRatio. By default the tools run in real time against the local
// filesystem with a modeled device bandwidth; -sim switches to the
// deterministic virtual-time backend used by the benchmark harness.
package cli

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"blaze/algo"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/fault"
	"blaze/internal/graph"
	"blaze/internal/metrics"
	"blaze/internal/pagecache"
	"blaze/internal/registry"
	"blaze/internal/session"
	"blaze/internal/ssd"
	"blaze/internal/trace"
)

// Options holds the parsed command line.
type Options struct {
	Engine string
	// ro holds the engine options the flags give directly: -computeWorkers,
	// -binningRatio, -devices, -binCount, -machines, -netBW and -netLatNs
	// bind straight into it. Setup completes a copy (Env.RO) from the loaded
	// graph and the flags below.
	ro          registry.Options
	StartNode   uint
	BinSpaceMB  int
	Profile     string
	Sim         bool
	PageCacheMB int

	// Concurrent-session knobs (-concurrency > 1 runs the query that many
	// times against one shared graph session; see internal/session).
	Concurrency    int
	InterleaveSeed uint64
	MaxIters       int
	Epsilon        float64
	// ConvergeTol is the residual tolerance handed to the driver's
	// convergence contract.
	ConvergeTol float64
	InIndex     string
	InAdj       string
	IndexPath   string
	AdjPath     string

	// Trace writes a Chrome trace_event JSON timeline of the run to the
	// given file (loadable in Perfetto / chrome://tracing); StageStats
	// prints the per-stage summary after the query. Either one enables the
	// tracer.
	Trace      string
	StageStats bool

	// Fault-injection knobs (testing/chaos runs; all default off).
	FaultSeed           uint64
	FaultTransientRate  float64
	FaultTransientFails int
	FaultPermanentRate  float64
	FaultSpikeRate      float64
	FaultSpikeNs        int64
	RetryMax            int
	RetryBackoffNs      int64
}

// FaultPolicy assembles the fault flags into a policy (zero = disabled).
func (o *Options) FaultPolicy() fault.Policy {
	return fault.Policy{
		Seed:           o.FaultSeed,
		TransientRate:  o.FaultTransientRate,
		TransientFails: o.FaultTransientFails,
		PermanentRate:  o.FaultPermanentRate,
		SpikeRate:      o.FaultSpikeRate,
		SpikeNs:        o.FaultSpikeNs,
	}
}

// DeviceOptions returns the device-construction options implied by the
// fault and retry flags.
func (o *Options) DeviceOptions() []ssd.DeviceOptions {
	opts := []ssd.DeviceOptions{o.FaultPolicy().DeviceOptions()}
	if o.RetryMax >= 0 || o.RetryBackoffNs > 0 {
		r := ssd.DefaultRetryPolicy()
		if o.RetryMax >= 0 {
			r.MaxRetries = o.RetryMax
		}
		if o.RetryBackoffNs > 0 {
			r.BackoffNs = o.RetryBackoffNs
		}
		opts = append(opts, ssd.DeviceOptions{Retry: &r})
	}
	return opts
}

// Main is the whole of a query tool: parse the shared flags, build the
// engine, run the algo.Queries entry named tool — -concurrency times against
// one shared session when asked, replica i starting from startNode+i — and
// print the run summary.
func Main(tool string) {
	q, ok := algo.QueryByName(tool)
	if !ok {
		log.Fatalf("%s: not a catalogue query", tool)
	}
	o := ParseFlags(tool, q.Transpose, nil)
	env, err := Setup(o)
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()
	n := uint64(env.Out.NumVertices())
	answers := make([]algo.Answer, max(o.Concurrency, 1))
	qs, err := env.RunQueries(o, func(p exec.Proc, sys algo.System, i int) (err error) {
		start := uint32((uint64(o.StartNode) + uint64(i)) % n)
		answers[i], err = q.Run(sys, p, env.Out, env.In, o.Args(start))
		return err
	})
	if err != nil {
		log.Fatalf("%s: %v", tool, err)
	}
	extra := answers[0].Summary
	if len(answers) > 1 {
		lines := make([]string, len(answers))
		for i, a := range answers {
			lines[i] = fmt.Sprintf("q%d: %s", i, a.Summary)
		}
		extra = strings.Join(lines, "\n")
	}
	env.Report(tool, extra)
	env.ReportQueries(qs)
}

// ParseFlags parses the artifact-compatible flag set and the two positional
// graph files. needTranspose makes the transpose inputs mandatory (bc, wcc);
// extra, when non-nil, adds a front end's own flags to the set (or changes a
// shared flag's default) before parsing.
func ParseFlags(tool string, needTranspose bool, extra func(*flag.FlagSet)) *Options {
	o := &Options{}
	fs := newFlagSet(tool, o, flag.ExitOnError)
	if extra != nil {
		extra(fs)
	}
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] <graph.gr.index> <graph.gr.adj.0>\n", tool)
		fs.PrintDefaults()
	}
	_ = fs.Parse(os.Args[1:])
	args := fs.Args()
	if len(args) != 2 {
		fs.Usage()
		os.Exit(2)
	}
	o.IndexPath, o.AdjPath = args[0], args[1]
	if needTranspose && (o.InIndex == "" || o.InAdj == "") {
		fmt.Fprintf(os.Stderr, "%s: requires -inIndexFilename and -inAdjFilenames (transpose graph)\n", tool)
		os.Exit(2)
	}
	return o
}

// newFlagSet declares the query tools' flags over o.
func newFlagSet(tool string, o *Options, onError flag.ErrorHandling) *flag.FlagSet {
	fs := flag.NewFlagSet(tool, onError)
	fs.StringVar(&o.Engine, "engine", "blaze", "execution engine: "+strings.Join(registry.Names(), ", "))
	fs.IntVar(&o.ro.Workers, "computeWorkers", 16, "number of computation workers (split between scatter and gather)")
	fs.UintVar(&o.StartNode, "startNode", 0, "source vertex for traversal queries")
	fs.IntVar(&o.BinSpaceMB, "binSpace", 0, "total bin space in MB (0 = heuristic: ~5 bytes/edge)")
	fs.IntVar(&o.ro.BinCount, "binCount", 1024, "number of online bins")
	fs.Float64Var(&o.ro.Ratio, "binningRatio", 0.5, "scatter fraction of compute workers")
	fs.IntVar(&o.ro.NumDev, "devices", 1, "number of SSDs to stripe the graph over")
	fs.StringVar(&o.Profile, "profile", "optane", "device profile: optane, nand, znand, vnand")
	fs.BoolVar(&o.Sim, "sim", false, "run under the deterministic virtual-time backend")
	maxItersDefault := 0
	if tool == "pr" {
		maxItersDefault = 20
	}
	fs.IntVar(&o.MaxIters, "maxIters", maxItersDefault, "iteration cap for every driven query (bfs, pr, wcc, bc); 0 = run to convergence")
	fs.Float64Var(&o.Epsilon, "epsilon", 0.001, "PageRank-delta activation threshold")
	fs.Float64Var(&o.ConvergeTol, "converge-tol", 0, "stop when the driver's residual (pr: total unpropagated rank mass) falls to this tolerance (0 = off)")
	fs.IntVar(&o.ro.Machines, "machines", 1, "machine count for -engine blaze-scaleout (destination-partitioned workers, -devices SSDs each; other engines ignore it)")
	fs.Float64Var(&o.ro.NetBandwidth, "netBW", 0, "scale-out link bandwidth per direction in bytes/s (0 = 25 Gb/s)")
	fs.Int64Var(&o.ro.NetLatencyNs, "netLatNs", 0, "scale-out per-message network latency in ns (0 = 10 µs)")
	fs.IntVar(&o.PageCacheMB, "pageCache", 0, "page cache size in MB (0 = off, the paper's configuration); caches the blaze engines and overrides flashgraph's built-in budget")
	fs.IntVar(&o.Concurrency, "concurrency", 1, "concurrent replicas of the query against one shared graph session (session-capable engines: "+strings.Join(registry.SessionNames(), ", ")+")")
	fs.Uint64Var(&o.InterleaveSeed, "interleaveSeed", 1, "deterministic interleave seed for concurrent -sim runs")
	fs.StringVar(&o.Trace, "trace", "", "write a Chrome trace_event JSON timeline to this file (open in Perfetto)")
	fs.BoolVar(&o.StageStats, "stageStats", false, "print the per-stage trace summary after the query")
	fs.StringVar(&o.InIndex, "inIndexFilename", "", "transpose graph index file")
	fs.StringVar(&o.InAdj, "inAdjFilenames", "", "transpose graph adjacency file")
	o.FaultFlags(fs)
	return fs
}

// FaultFlags declares the fault-injection and retry flags over o on fs: the
// query tools, blaze-serve and blaze-bench share them.
func (o *Options) FaultFlags(fs *flag.FlagSet) {
	fs.Uint64Var(&o.FaultSeed, "faultSeed", 1, "fault-injection seed (deterministic per page)")
	fs.Float64Var(&o.FaultTransientRate, "faultTransientRate", 0, "fraction of pages whose reads fail transiently (0 = off)")
	fs.IntVar(&o.FaultTransientFails, "faultTransientFails", 1, "failed attempts before a transient-faulty page heals")
	fs.Float64Var(&o.FaultPermanentRate, "faultPermanentRate", 0, "fraction of pages that are permanently unreadable (0 = off)")
	fs.Float64Var(&o.FaultSpikeRate, "faultSpikeRate", 0, "fraction of requests with extra modeled latency (0 = off)")
	fs.Int64Var(&o.FaultSpikeNs, "faultSpikeNs", 0, "extra latency per spiked request in ns")
	fs.IntVar(&o.RetryMax, "retryMax", -1, "max transient-error retries per read (-1 = device default)")
	fs.Int64Var(&o.RetryBackoffNs, "retryBackoffNs", 0, "initial retry backoff in ns, doubling per attempt (0 = device default)")
}

// DeviceProfile resolves the -profile flag.
func (o *Options) DeviceProfile() (ssd.Profile, error) {
	switch strings.ToLower(o.Profile) {
	case "optane":
		return ssd.OptaneSSD, nil
	case "nand":
		return ssd.NANDSSD, nil
	case "znand":
		return ssd.ZNAND, nil
	case "vnand":
		return ssd.VNAND, nil
	}
	return ssd.Profile{}, fmt.Errorf("unknown device profile %q", o.Profile)
}

// Env is the constructed runtime environment.
type Env struct {
	Ctx   exec.Context
	Stats *metrics.IOStats
	Out   *engine.Graph
	In    *engine.Graph // nil unless transpose inputs were given
	Sys   algo.System
	start time.Time

	// Tracer is non-nil when -trace or -stageStats was given; Report
	// collects it and writes the requested outputs.
	Tracer     *trace.Tracer
	tracePath  string
	stageStats bool

	// Cache is the page cache built for -pageCache, for the Report line;
	// nil when the flag was 0.
	Cache *pagecache.Cache

	// RO is the registry option set Setup built the engine from; concurrent
	// sessions construct each replica's engine from the same options.
	RO registry.Options
}

// Args assembles a start vertex and the -epsilon, -maxIters and
// -converge-tol flags into the arguments every catalogue query takes.
func (o *Options) Args(start uint32) algo.Args {
	return algo.Args{Start: start, Eps: o.Epsilon, Conv: algo.Convergence{MaxIters: o.MaxIters, Tol: o.ConvergeTol}}
}

// Setup loads the graphs and builds the engine selected by -engine
// through the shared registry.
func Setup(o *Options) (*Env, error) {
	prof, err := o.DeviceProfile()
	if err != nil {
		return nil, err
	}
	if o.Engine == "" {
		o.Engine = "blaze"
	}
	var ctx exec.Context
	if o.Sim {
		ctx = exec.NewSim()
	} else {
		ctx = exec.NewReal()
	}
	ro := o.ro
	ro.Profile, ro.DevOpts = prof, o.DeviceOptions()
	ro = ro.WithDefaults()
	// The graph files stripe over NumDev devices whatever the engine; the
	// stats also cover the arrays blaze-scaleout builds for its -machines.
	stats := metrics.NewIOStats(ro.StatDevices())
	out, err := engine.FromFiles(ctx, o.IndexPath, o.IndexPath, o.AdjPath, ro.NumDev, prof, stats, nil, ro.DevOpts...)
	if err != nil {
		return nil, err
	}
	env := &Env{Ctx: ctx, Stats: stats, Out: out, start: time.Now()}
	if o.InIndex != "" {
		in, err := engine.FromFiles(ctx, o.InIndex, o.InIndex, o.InAdj, ro.NumDev, prof, stats, nil, ro.DevOpts...)
		if err != nil {
			out.Close()
			return nil, err
		}
		env.In = in
	}
	// Engines that traverse the adjacency from DRAM (inmem) or place it on
	// their own devices (graphene) need the packed adjacency in memory; the
	// out-of-core engines keep it on disk behind the striped array.
	if registry.NeedsAdjacency(o.Engine) {
		if err := graph.ReadAdj(o.AdjPath, out.CSR); err != nil {
			env.Close()
			return nil, err
		}
		if env.In != nil {
			if err := graph.ReadAdj(o.InAdj, env.In.CSR); err != nil {
				env.Close()
				return nil, err
			}
		}
	}
	if o.PageCacheMB > 0 {
		env.Cache = pagecache.New(int64(o.PageCacheMB) << 20)
	}
	if o.Trace != "" || o.StageStats {
		env.Tracer = trace.New(trace.Config{})
		env.tracePath = o.Trace
		env.stageStats = o.StageStats
	}
	ro.Edges, ro.Stats, ro.PageCache, ro.Tracer = out.NumEdges(), stats, env.Cache, env.Tracer
	if o.PageCacheMB > 0 {
		// The flag also sizes flashgraph's built-in cache, so one knob
		// governs caching across engines.
		ro.CacheBytes = int64(o.PageCacheMB) << 20
	}
	if o.BinSpaceMB > 0 {
		ro.BinSpaceBytes = int64(o.BinSpaceMB) << 20
	}
	env.RO = ro
	sys, err := registry.New(o.Engine, ctx, ro)
	if err != nil {
		env.Close()
		return nil, err
	}
	env.Sys = sys
	if uint64(o.StartNode) >= uint64(out.NumVertices()) {
		env.Close()
		return nil, fmt.Errorf("startNode %d out of range (|V| = %d)", o.StartNode, out.NumVertices())
	}
	return env, nil
}

// RunQueries executes body under the runtime clock: once directly on the
// setup engine when -concurrency is 1 (the classic path, unchanged), or
// -concurrency times concurrently against one shared graph session
// otherwise. Each replica gets its own engine instance over the shared
// graph, page cache, and per-device IO schedulers; body receives the
// replica index so replicas can vary their parameters (e.g. BFS sources).
// It returns the per-query reports (nil in the single-query case) and the
// first error.
func (e *Env) RunQueries(o *Options, body func(p exec.Proc, sys algo.System, i int) error) ([]*session.Query, error) {
	if o.Concurrency <= 1 {
		var err error
		e.Ctx.Run("main", func(p exec.Proc) { err = body(p, e.Sys, 0) })
		return nil, err
	}
	sess, err := session.New(e.Ctx, e.Out, e.In, session.Config{
		Engine: o.Engine,
		Base:   e.RO,
		Cache:  e.Cache,
		Seed:   o.InterleaveSeed,
		Stats:  e.Stats,
	})
	if err != nil {
		return nil, err
	}
	bodies := make([]session.Body, o.Concurrency)
	for i := range bodies {
		idx := i
		bodies[idx] = func(p exec.Proc, q *session.Query) error {
			return body(p, q.Sys, idx)
		}
	}
	var qs []*session.Query
	var runErr error
	e.Ctx.Run("main", func(p exec.Proc) { qs, runErr = sess.Run(p, bodies...) })
	return qs, runErr
}

// ReportQueries prints one attribution line per concurrent query plus the
// session coalescing total (no-op for single-query runs).
func (e *Env) ReportQueries(qs []*session.Query) {
	if len(qs) == 0 {
		return
	}
	for _, q := range qs {
		cs := q.Cache.Snapshot()
		line := fmt.Sprintf("query %d: time=%.3fs read=%.1fMB coalesced=%d pages",
			q.ID, float64(q.ElapsedNs())/1e9,
			float64(q.IO.TotalBytes())/1e6, q.IO.CoalescedPages())
		if cs.Hits+cs.Misses > 0 {
			line += fmt.Sprintf(" cacheHits=%d cacheMisses=%d quotaRejected=%d",
				cs.Hits, cs.Misses, cs.QuotaRejected)
		}
		fmt.Println(line)
	}
	fmt.Printf("session: %d queries, %d device reads coalesced away (%.1f MB)\n",
		len(qs), e.Stats.CoalescedPages(), float64(e.Stats.CoalescedBytes())/1e6)
}

// Close releases graph files.
func (e *Env) Close() {
	e.Out.Close()
	if e.In != nil {
		e.In.Close()
	}
}

// Report prints the run summary the artifact tools print.
func (e *Env) Report(query string, extra string) {
	var elapsedNs int64
	clock := "wall"
	if s, ok := e.Ctx.(*exec.Sim); ok {
		elapsedNs = s.End
		clock = "virtual"
	} else {
		elapsedNs = int64(time.Since(e.start))
	}
	bw := 0.0
	if elapsedNs > 0 {
		bw = float64(e.Stats.TotalBytes()) / (float64(elapsedNs) / 1e9)
	}
	fmt.Printf("%s: |V|=%d |E|=%d time=%.3fs (%s) read=%.1fMB avgBW=%.2fGB/s requests=%d\n",
		query, e.Out.NumVertices(), e.Out.NumEdges(),
		float64(elapsedNs)/1e9, clock,
		float64(e.Stats.TotalBytes())/1e6, bw/1e9, e.Stats.Requests())
	if r, er := e.Stats.Retries(), e.Stats.ReadErrors(); r > 0 || er > 0 {
		fmt.Printf("device faults: %d retried reads, %d unrecoverable errors\n", r, er)
	}
	// Engines with a built-in cache (flashgraph) report their own counters;
	// the blaze engines report the -pageCache cache handed to them.
	if cs, ok := e.Sys.(interface{ CacheStats() metrics.CacheStats }); ok {
		printCacheStats(cs.CacheStats())
	} else if e.Cache.Enabled() {
		d := e.Cache.StatsDetail()
		printCacheStats(d)
	}
	if extra != "" {
		fmt.Println(extra)
	}
	if e.Tracer != nil {
		tr := e.Tracer.Collect()
		if e.tracePath != "" {
			if err := WriteTrace(e.tracePath, tr); err != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			} else {
				fmt.Printf("trace: %d events from %d procs written to %s\n",
					tr.Events(), len(tr.Procs), e.tracePath)
			}
		}
		if e.stageStats {
			trace.Summarize(tr).Fprint(os.Stdout)
		}
	}
}

// printCacheStats prints one page-cache accounting line (skipped when the
// cache saw no traffic, e.g. a -pageCache flag on an engine that ignores
// it).
func printCacheStats(d metrics.CacheStats) {
	if d.Hits+d.Misses == 0 {
		return
	}
	fmt.Printf("page cache: hits=%d misses=%d hitRate=%.1f%% evictions=%d ghostHits=%d\n",
		d.Hits, d.Misses, 100*d.HitRate(), d.Evictions, d.GhostHits)
}

// WriteTrace writes tr to path in Chrome trace_event JSON format.
func WriteTrace(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
