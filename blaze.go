// Package blaze is a Go reproduction of Blaze (Kim & Swanson, SC22), an
// out-of-core graph processing system optimized for fast NVMe SSDs.
//
// Blaze processes graphs whose adjacency lives on storage while keeping
// vertex data in memory (the semi-external model). Its EdgeMap/VertexMap
// API (from Ligra) is extended with explicit scatter and gather functions
// whose value flow runs through *online binning*, an atomic-free
// scatter-gather scheme that keeps fast SSDs saturated.
//
// A minimal BFS:
//
//	rt := blaze.New(blaze.WithComputeWorkers(8))
//	rt.Run(func(c *blaze.Ctx) {
//	    g, _ := c.GraphFromEdges("toy", 5, []uint32{0,0,1}, []uint32{1,2,3})
//	    parent := make([]int32, g.NumVertices())
//	    for i := range parent { parent[i] = -1 }
//	    parent[0] = 0
//	    f := blaze.Single(g.NumVertices(), 0)
//	    for !f.Empty() {
//	        var err error
//	        f, err = blaze.EdgeMap(c, g, f,
//	            func(s, d uint32) uint32 { return s },
//	            func(d uint32, v uint32) bool {
//	                if parent[d] == -1 { parent[d] = int32(v); return true }
//	                return false
//	            },
//	            func(d uint32) bool { return parent[d] == -1 },
//	            true)
//	        if err != nil {
//	            // an unrecoverable device error; the pipeline has shut
//	            // down cleanly and the traversal state is partial
//	            break
//	        }
//	    }
//	})
//
// The Runtime can execute under two clocks: real goroutines with wall-clock
// device pacing (the default, used by applications), or a deterministic
// virtual-time simulation (WithSimulatedTime, used by the benchmark harness
// to reproduce the paper's figures on arbitrary hardware).
package blaze

import (
	"fmt"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/costmodel"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/fault"
	"blaze/internal/frontier"
	"blaze/internal/graph"
	"blaze/internal/metrics"
	"blaze/internal/pagecache"
	"blaze/internal/registry"
	"blaze/internal/session"
	"blaze/internal/ssd"
)

// Graph is a runtime graph handle: in-memory index plus device-resident
// adjacency.
type Graph = engine.Graph

// VertexSubset is a frontier (sparse or dense, switching automatically).
type VertexSubset = frontier.VertexSubset

// NewVertexSubset returns an empty frontier over n vertices.
func NewVertexSubset(n uint32) *VertexSubset { return frontier.NewVertexSubset(n) }

// Single returns a frontier holding one vertex.
func Single(n, v uint32) *VertexSubset { return frontier.Single(n, v) }

// All returns a frontier with every vertex active.
func All(n uint32) *VertexSubset { return frontier.All(n) }

// Runtime owns the execution context and the one option set every engine
// it runs is assembled from (see internal/registry).
type Runtime struct {
	ctx exec.Context
	// opts is what the With* options write into; Edges is filled per call
	// from the graph it runs on (optsFor), as the query tools fill it.
	opts    registry.Options
	tl      *metrics.Timeline
	elapsed int64

	// interleaveSeed is RunConcurrent's session seed.
	interleaveSeed uint64
}

// Option configures a Runtime.
type Option func(*Runtime)

// WithSimulatedTime switches to the deterministic virtual-time backend.
func WithSimulatedTime() Option {
	return func(rt *Runtime) { rt.ctx = exec.NewSim() }
}

// WithComputeWorkers sets the computation proc count, split between
// scatter and gather by WithBinningRatio (equally by default, the paper's
// ratio).
func WithComputeWorkers(n int) Option {
	return func(rt *Runtime) { rt.opts.Workers = n }
}

// WithBinningRatio splits compute workers between scatter and gather
// (scatter fraction; 0.5 = equal).
func WithBinningRatio(ratio float64) Option {
	return func(rt *Runtime) { rt.opts.Ratio = ratio }
}

// WithBinCount sets the number of online bins.
func WithBinCount(n int) Option {
	return func(rt *Runtime) { rt.opts.BinCount = n }
}

// WithBinSpace sets the total bin memory budget in bytes (default: one
// byte per edge of the graph being processed, between 4 MB and 256 MB).
func WithBinSpace(bytes int64) Option {
	return func(rt *Runtime) { rt.opts.BinSpaceBytes = bytes }
}

// WithIOBufferSpace sets the static IO buffer budget in bytes (default
// 64 MB, as in the paper).
func WithIOBufferSpace(bytes int64) Option {
	return func(rt *Runtime) { rt.opts.IOBufferBytes = bytes }
}

// DeviceProfile describes an SSD's read-bandwidth envelope (Table I of the
// paper). Obtain one from OptaneSSD, NANDSSD, ZNANDSSD, or Samsung980Pro,
// or derive a scaled one with its Scale method.
type DeviceProfile = ssd.Profile

// OptaneSSD returns the Intel Optane SSD DC P4800X profile (the paper's
// primary fast NVMe drive).
func OptaneSSD() DeviceProfile { return ssd.OptaneSSD }

// NANDSSD returns the Intel DC S3520 profile (the paper's slow baseline).
func NANDSSD() DeviceProfile { return ssd.NANDSSD }

// ZNANDSSD returns the Samsung Z-NAND SZ983 profile.
func ZNANDSSD() DeviceProfile { return ssd.ZNAND }

// Samsung980Pro returns the Samsung 980 Pro profile.
func Samsung980Pro() DeviceProfile { return ssd.VNAND }

// WithDevices sets the device count and bandwidth profile used for graphs
// created by this runtime (default: one Optane SSD).
func WithDevices(n int, prof DeviceProfile) Option {
	return func(rt *Runtime) { rt.opts.NumDev = n; rt.opts.Profile = prof }
}

// WithPageCache enables a sharded CLOCK page cache of the given byte
// capacity that persists across EdgeMap calls and can serve merged
// multi-page reads fully or partially (trimming the device read to the
// uncached middle span). The paper's Blaze has no such cache (random
// IO-buffer eviction only) and names better eviction policies as future
// work; enabling it closes the gap to FlashGraph on high-locality graphs
// like sk2005 at the price of memory (see the pagecache ablation).
//
// Cached pages are keyed by graph name: graphs created under the same
// runtime must use distinct names (a reload under the same name
// deliberately reuses the previous entries).
func WithPageCache(bytes int64) Option {
	return func(rt *Runtime) { rt.opts.PageCache = pagecache.New(bytes) }
}

// FaultPolicy is a deterministic device-fault model for testing failure
// handling: per-page transient and permanent read-error rates plus optional
// latency spikes, all keyed by a seed. The zero value injects nothing.
type FaultPolicy = fault.Policy

// WithFaultPolicy injects deterministic device faults into every graph
// created by this runtime. Transient errors are absorbed by the device
// retry policy (with backoff charged in model time); permanent errors
// surface as EdgeMap errors after a clean pipeline shutdown.
func WithFaultPolicy(p FaultPolicy) Option {
	return func(rt *Runtime) {
		rt.opts.DevOpts = append(rt.opts.DevOpts, p.DeviceOptions())
	}
}

// WithRetryPolicy overrides how device reads retry transient errors:
// maxRetries bounded attempts with exponential backoff starting at
// backoffNs (charged as device busy time).
func WithRetryPolicy(maxRetries int, backoffNs int64) Option {
	return func(rt *Runtime) {
		rt.opts.DevOpts = append(rt.opts.DevOpts, ssd.DeviceOptions{
			Retry: &ssd.RetryPolicy{MaxRetries: maxRetries, BackoffNs: backoffNs},
		})
	}
}

// WithScaleout partitions built-in queries (Ctx.PageRank) across m
// destination-partitioned machines, each with its own device array of
// WithDevices size, exchanging sparse vertex deltas over a modeled
// interconnect after every round (the blaze-scaleout engine). m <= 1 keeps
// the single-machine engine.
func WithScaleout(m int) Option {
	return func(rt *Runtime) { rt.opts.Machines = m }
}

// WithNetwork sets the scale-out interconnect model: each link direction's
// bandwidth in bytes/second and the per-message latency in nanoseconds
// (0 keeps the defaults, 25 Gb/s and 10 µs). Only meaningful together with
// WithScaleout.
func WithNetwork(bandwidthBytesPerSec float64, latencyNs int64) Option {
	return func(rt *Runtime) { rt.opts.NetBandwidth = bandwidthBytesPerSec; rt.opts.NetLatencyNs = latencyNs }
}

// WithInterleaveSeed sets the deterministic interleave seed RunConcurrent
// uses under the simulated backend: a fixed seed reproduces the exact same
// concurrent schedule run after run, different seeds exercise different
// interleavings (default 1).
func WithInterleaveSeed(seed uint64) Option {
	return func(rt *Runtime) { rt.interleaveSeed = seed }
}

// WithCostModel overrides the virtual-time cost model.
func WithCostModel(m costmodel.Model) Option {
	return func(rt *Runtime) { rt.opts.Model = &m }
}

// WithTimeline enables bandwidth timeline collection at the given bucket
// width in nanoseconds.
func WithTimeline(bucketNs int64) Option {
	return func(rt *Runtime) { rt.tl = metrics.NewTimeline(bucketNs) }
}

// New returns a Runtime. Defaults: real-time backend, one simulated Optane
// SSD, 16 compute workers split 8/8, 1024 bins, 64 MB IO buffers, bin space
// sized from the graph each call runs on.
func New(opts ...Option) *Runtime {
	rt := &Runtime{
		ctx: exec.NewReal(),
		opts: registry.Options{
			Mem: metrics.NewMemAccount(),
			// The run pool carries each EdgeMap value type's IO buffers and
			// bins from round to round (engine.Pool).
			Pool: engine.NewPool(),
		},
	}
	for _, o := range opts {
		o(rt)
	}
	rt.opts = rt.opts.WithDefaults()
	rt.opts.Stats = metrics.NewIOStats(rt.opts.StatDevices())
	return rt
}

// Ctx is the per-run handle passed to the function given to Run. All graph
// loading and EdgeMap/VertexMap calls must happen through it.
type Ctx struct {
	rt *Runtime
	P  exec.Proc
	// sys, when non-nil, is this Ctx's own engine: concurrent sessions give
	// every query its identity, scheduler table, and attributed counters.
	// nil falls back to the runtime's options.
	sys *algo.Blaze
}

// optsFor returns the runtime's options for work on a graph of the given
// edge count, which is what bin space is sized from — per call, as the query
// tools size it from the graph they run on (0: no graph, the floor).
func (rt *Runtime) optsFor(edges int64) registry.Options {
	o := rt.opts
	o.Edges = edges
	return o
}

func (c *Ctx) config(edges int64) engine.Config {
	if c.sys != nil {
		return c.sys.Cfg
	}
	return c.rt.optsFor(edges).BlazeConfig()
}

// run executes fn as the root proc under the runtime's clock and records
// the makespan.
func (rt *Runtime) run(fn func(p exec.Proc)) {
	rt.ctx.Run("main", func(p exec.Proc) {
		fn(p)
		rt.elapsed = p.Now()
	})
	if s, ok := rt.ctx.(*exec.Sim); ok {
		rt.elapsed = s.End
	}
}

// Run executes fn under the runtime's clock and records the makespan.
func (rt *Runtime) Run(fn func(*Ctx)) {
	rt.run(func(p exec.Proc) { fn(&Ctx{rt: rt, P: p}) })
}

// TotalReadBytes returns the bytes read from the devices so far.
func (rt *Runtime) TotalReadBytes() int64 { return rt.opts.Stats.TotalBytes() }

// CacheStats is the page cache's counter summary (see metrics.CacheStats).
type CacheStats = metrics.CacheStats

// PageCacheStats returns the page cache's hit/miss/evict counters, or the
// zero value when WithPageCache was not set. Misses include pages read
// around the cache, so HitRate never overstates what the cache served.
func (rt *Runtime) PageCacheStats() CacheStats {
	if rt.opts.PageCache == nil {
		return CacheStats{}
	}
	return rt.opts.PageCache.StatsDetail()
}

// ReadRequests returns the IO request count so far.
func (rt *Runtime) ReadRequests() int64 { return rt.opts.Stats.Requests() }

// BandwidthSeries returns the read bandwidth per timeline bucket in
// bytes/second, or nil when WithTimeline was not set.
func (rt *Runtime) BandwidthSeries() []float64 {
	if rt.tl == nil {
		return nil
	}
	return rt.tl.Series()
}

// MemItem is one named memory-footprint component.
type MemItem = metrics.MemItem

// MemoryItems returns the tracked memory components (graph index, IO
// buffers, bin space, frontier, algorithm arrays).
func (rt *Runtime) MemoryItems() []MemItem { return rt.opts.Mem.Items() }

// MemoryBytes returns the total tracked memory footprint.
func (rt *Runtime) MemoryBytes() int64 { return rt.opts.Mem.Total() }

// ElapsedNs returns the makespan of the last Run (virtual or wall ns).
func (rt *Runtime) ElapsedNs() int64 { return rt.elapsed }

// AvgReadBandwidth returns total read bytes divided by the last Run's
// makespan, in bytes/second — the paper's Figure 1/8 metric.
func (rt *Runtime) AvgReadBandwidth() float64 {
	if rt.elapsed == 0 {
		return 0
	}
	return float64(rt.opts.Stats.TotalBytes()) / (float64(rt.elapsed) / 1e9)
}

// MaxReadBandwidth returns the aggregate device bandwidth (the red line).
func (rt *Runtime) MaxReadBandwidth() float64 {
	return rt.opts.Profile.RandBytesPerSec * float64(rt.opts.NumDev)
}

// GraphFromEdges builds an in-memory graph from an edge list and stripes it
// over the runtime's devices.
func (c *Ctx) GraphFromEdges(name string, n uint32, src, dst []uint32) (*Graph, error) {
	csr, err := graph.Build(n, src, dst)
	if err != nil {
		return nil, err
	}
	o := &c.rt.opts
	g := engine.FromCSR(c.rt.ctx, name, csr, o.NumDev, o.Profile, o.Stats, c.rt.tl, o.DevOpts...)
	c.accountGraph(g)
	return g, nil
}

// GraphFromPreset generates a Table II dataset preset (already Scaled) and
// returns the forward and transpose graphs.
func (c *Ctx) GraphFromPreset(p gen.Preset) (out, in *Graph) {
	o := &c.rt.opts
	out, in = engine.BuildPreset(c.rt.ctx, p, o.NumDev, o.Profile, o.Stats, c.rt.tl, o.DevOpts...)
	c.accountGraph(out)
	return out, in
}

// LoadGraph opens an on-disk graph (<base>.gr.index / <base>.gr.adj.0 as
// written by cmd/mkgraph) with the adjacency left on storage.
func (c *Ctx) LoadGraph(name, indexPath, adjPath string) (*Graph, error) {
	o := &c.rt.opts
	g, err := engine.FromFiles(c.rt.ctx, name, indexPath, adjPath, o.NumDev, o.Profile, o.Stats, c.rt.tl, o.DevOpts...)
	if err != nil {
		return nil, err
	}
	c.accountGraph(g)
	return g, nil
}

// SaveGraph writes an in-memory graph to <base>.gr.index and
// <base>.gr.adj.0 in the format cmd/mkgraph produces and LoadGraph reads.
func (c *Ctx) SaveGraph(g *Graph, base string) error {
	if g.CSR.Adj == nil {
		return fmt.Errorf("blaze: SaveGraph requires an in-memory graph (file-backed graphs are already on disk)")
	}
	return graph.WriteFiles(g.CSR, nil, base)
}

// SaveGraphPair writes a forward graph and its transpose to the four
// artifact files <base>.gr.* and <base>.tgr.* (as BC and WCC inputs).
func (c *Ctx) SaveGraphPair(out, in *Graph, base string) error {
	if out.CSR.Adj == nil || in.CSR.Adj == nil {
		return fmt.Errorf("blaze: SaveGraphPair requires in-memory graphs")
	}
	return graph.WriteFiles(out.CSR, in.CSR, base)
}

func (c *Ctx) accountGraph(g *Graph) {
	c.rt.opts.Mem.Set("graph-index", g.CSR.IndexBytes())
}

// RegisterAlgoMemory records algorithm-specific vertex array bytes for the
// memory-footprint accounting (Figure 12).
func (c *Ctx) RegisterAlgoMemory(bytes int64) {
	c.rt.opts.Mem.Set("algo-arrays", bytes)
}

// EdgeMap applies scatter/gather/cond to the edges out of frontier f and
// returns the new frontier when output is true, nil otherwise (see
// engine.EdgeMap). A non-nil error means an unrecoverable device failure;
// the pipeline has shut down cleanly, the frontier is nil, and the
// traversal state may be partially updated.
func EdgeMap[V any](c *Ctx, g *Graph, f *VertexSubset,
	scatter func(s, d uint32) V,
	gather func(d uint32, v V) bool,
	cond func(d uint32) bool,
	output bool) (*VertexSubset, error) {
	out, _, err := engine.EdgeMap(c.rt.ctx, c.P, g, f, scatter, gather, cond, output, c.config(g.NumEdges()))
	return out, err
}

// VertexMap applies fn to every vertex in f, returning the vertices for
// which fn was true.
func VertexMap(c *Ctx, f *VertexSubset, fn func(v uint32) bool) *VertexSubset {
	return engine.VertexMap(c.P, f, fn, c.config(0))
}

// Convergence is the iteration-driver stopping contract shared by the
// built-in queries: zero value = run until the frontier empties,
// MaxIters caps the iteration count, and Tol stops once the query's
// residual (for PageRank, the total unpropagated rank mass) falls to the
// tolerance. See algo.Convergence.
type Convergence = algo.Convergence

// PageRank runs the out-of-core PageRank-delta algorithm (paper
// Algorithm 2) on g under the iteration-driver layer, returning the rank
// vector and the number of iterations the driver ran before the
// convergence contract stopped it. eps is the per-vertex activation
// threshold; cv bounds the drive (Convergence{} iterates until no rank
// moves, Convergence{MaxIters: 20} reproduces the classic fixed cap,
// Tol adds a residual stop).
func (c *Ctx) PageRank(g *Graph, eps float64, cv Convergence) ([]float64, int, error) {
	sys := c.querySystem(g)
	c.RegisterAlgoMemory(algo.AlgoMemoryPageRank(g.NumVertices()))
	return algo.PageRankDrive(algo.DriverFor(sys), sys, c.P, g, eps, cv)
}

// querySystem returns the algo.System the built-in queries run on: the
// query's own engine inside RunConcurrent, otherwise the registered blaze
// engine, or blaze-scaleout when WithScaleout(m > 1) is set (the graph
// needs in-memory adjacency for partitioning; EdgeMap surfaces an error
// otherwise).
func (c *Ctx) querySystem(g *Graph) algo.System {
	if c.sys != nil {
		return c.sys
	}
	name := "blaze"
	if c.rt.opts.Machines > 1 {
		name = "blaze-scaleout"
	}
	return algo.Must(registry.New(name, c.rt.ctx, c.rt.optsFor(g.NumEdges())))
}

// QueryReport summarizes one query of a RunConcurrent session: its
// attributed device IO (reads it caused, reads it attached to), its share
// of the page cache's service, and its makespan.
type QueryReport struct {
	ID        int32
	Err       error
	ElapsedNs int64
	// DeviceReadBytes/Pages are device reads this query caused; coalesced
	// attaches to another query's pending read are counted separately in
	// CoalescedPages and never as device reads.
	DeviceReadBytes int64
	DeviceReadPages int64
	CoalescedPages  int64
	// Cache is the query's attributed share of the shared page cache
	// (zero without WithPageCache).
	Cache CacheStats
}

// RunConcurrent loads one graph and executes the query bodies against it
// concurrently as one shared session: one resident graph, one page cache
// (when WithPageCache is set, split fairly between the active queries),
// and one shared IO scheduler per device that coalesces overlapping reads
// across queries and shares bandwidth by deficit round-robin. Under the
// simulated backend the concurrent schedule is deterministic for a fixed
// WithInterleaveSeed.
//
// Every query gets its own Ctx (same Runtime, its own identity); bodies
// run concurrently, so per-query state must not be shared between them.
// Per-query failures land in the reports, and the first non-nil error
// (load or query) is also returned.
func (rt *Runtime) RunConcurrent(load func(*Ctx) (*Graph, error),
	queries ...func(*Ctx, *Graph) error) ([]QueryReport, error) {

	var reports []QueryReport
	var retErr error
	rt.run(func(p exec.Proc) {
		g, err := load(&Ctx{rt: rt, P: p})
		if err != nil {
			retErr = err
			return
		}
		sess, err := session.New(rt.ctx, g, nil, session.Config{
			Engine: "blaze",
			Base:   rt.optsFor(g.NumEdges()),
			Cache:  rt.opts.PageCache,
			Seed:   rt.interleaveSeed,
			Stats:  rt.opts.Stats,
		})
		if err != nil {
			retErr = err
			return
		}
		bodies := make([]session.Body, len(queries))
		for i := range queries {
			body := queries[i]
			bodies[i] = func(qp exec.Proc, q *session.Query) error {
				return body(&Ctx{rt: rt, P: qp, sys: q.Sys.(*algo.Blaze)}, g)
			}
		}
		qs, runErr := sess.Run(p, bodies...)
		retErr = runErr
		reports = make([]QueryReport, len(qs))
		for i, q := range qs {
			reports[i] = QueryReport{
				ID:              q.ID,
				Err:             q.Err,
				ElapsedNs:       q.ElapsedNs(),
				DeviceReadBytes: q.IO.TotalBytes(),
				DeviceReadPages: q.IO.PagesRead(),
				CoalescedPages:  q.IO.CoalescedPages(),
				Cache:           q.Cache.Snapshot(),
			}
		}
	})
	return reports, retErr
}
