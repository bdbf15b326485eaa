// Package engine implements Blaze's out-of-core EdgeMap execution engine
// (§IV-C, Fig. 5): vertex frontier → page frontier → per-SSD IO procs with
// free/filled buffer queues → scatter procs → online bins → gather procs →
// output frontier. VertexMap executes in memory over the vertex frontier.
package engine

import (
	"fmt"
	"os"

	"blaze/gen"
	"blaze/internal/costmodel"
	"blaze/internal/exec"
	"blaze/internal/graph"
	"blaze/internal/iosched"
	"blaze/internal/metrics"
	"blaze/internal/pagecache"
	"blaze/internal/pipeline"
	"blaze/internal/ssd"
	"blaze/internal/trace"
)

// Graph is a runtime graph handle: the in-memory metadata (index and
// page→vertex map inside CSR) plus the device array holding the adjacency.
type Graph struct {
	Name string
	CSR  *graph.CSR
	Arr  *ssd.Array
	// Locality in [0,1] summarizes cache friendliness of the dataset
	// (from its generator preset); feeds the cost model's discount.
	Locality float64
	// HotFrac is the fraction of edges targeting top-0.1%-in-degree
	// vertices, computed from the real in-degree distribution; it prices
	// atomic contention in the synchronization-based engines.
	HotFrac float64
	// Segs holds sealed delta segments overlaying this graph: each is a
	// small device-backed graph over the same vertex space whose edges
	// EdgeMap iterates after the base's (the log-structured overlay a
	// Dynamic wrapper maintains). nil for static graphs — the seed path.
	Segs []*Graph

	file *os.File // backing file when loaded from disk, for Close
}

// RequireStatic returns an error when g carries sealed delta segments.
// Engines whose EdgeMap scans only the base CSR call it first: without it
// a query on an engine.Dynamic overlay would silently answer for the base
// graph alone.
func (g *Graph) RequireStatic(engine string) error {
	if len(g.Segs) > 0 {
		return fmt.Errorf("%s: graph %q has %d sealed delta segments, which this engine does not read (compact it, or use a dynamic-capable engine)",
			engine, g.Name, len(g.Segs))
	}
	return nil
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() uint32 { return g.CSR.V }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int64 { return g.CSR.E }

// Close releases the backing file, if any.
func (g *Graph) Close() error {
	if g.file != nil {
		err := g.file.Close()
		g.file = nil
		return err
	}
	return nil
}

// FromCSR wraps an in-memory CSR (adjacency required) as a device-backed
// graph striped over numDev devices with the given profile. Device options
// (fault injection, retry policy) are applied to every device.
func FromCSR(ctx exec.Context, name string, c *graph.CSR, numDev int, prof ssd.Profile,
	stats *metrics.IOStats, tl *metrics.Timeline, opts ...ssd.DeviceOptions) *Graph {
	if c.Adj == nil {
		panic("engine: FromCSR requires in-memory adjacency")
	}
	arr := ssd.NewMemArray(ctx, 0, numDev, prof, c.Adj, stats, tl, opts...)
	return &Graph{Name: name, CSR: c, Arr: arr}
}

// FromFiles loads <indexPath> and exposes <adjPath> through numDev striped
// devices. The CSR is index-only; the adjacency stays on disk.
func FromFiles(ctx exec.Context, name, indexPath, adjPath string, numDev int, prof ssd.Profile,
	stats *metrics.IOStats, tl *metrics.Timeline, opts ...ssd.DeviceOptions) (*Graph, error) {
	c, err := graph.ReadIndex(indexPath)
	if err != nil {
		return nil, err
	}
	f, size, err := graph.OpenAdj(adjPath, c)
	if err != nil {
		return nil, err
	}
	o := ssd.MergeDeviceOptions(opts)
	devs := make([]*ssd.Device, numDev)
	for i := 0; i < numDev; i++ {
		var b ssd.Backing = &ssd.StripeView{Src: f, SrcSize: size, Dev: i, NumDev: numDev}
		devs[i] = o.Build(ctx, i, prof, b, stats, tl)
	}
	arr := ssd.NewArray(devs)
	return &Graph{Name: name, CSR: c, Arr: arr, file: f}, nil
}

// BuildPreset generates a preset dataset in memory and wraps forward and
// transpose graphs, annotating locality and hot-edge fraction.
func BuildPreset(ctx exec.Context, p gen.Preset, numDev int, prof ssd.Profile,
	stats *metrics.IOStats, tl *metrics.Timeline, opts ...ssd.DeviceOptions) (out, in *Graph) {
	src, dst := p.Generate()
	c := graph.MustBuild(p.V, src, dst)
	tr := c.Transpose()
	hot := graph.HotEdgeFraction(tr.Degrees, 0.001)
	out = FromCSR(ctx, p.Name, c, numDev, prof, stats, tl, opts...)
	in = FromCSR(ctx, p.Name+".t", tr, numDev, prof, stats, tl, opts...)
	out.Locality, in.Locality = p.Locality, p.Locality
	out.HotFrac, in.HotFrac = hot, hot
	return out, in
}

// Config parameterizes one engine instance.
type Config struct {
	// ScatterProcs and GatherProcs set the computation proc counts; the
	// paper's default binning ratio of 0.5 means equal counts.
	ScatterProcs int
	GatherProcs  int
	// MaxMergePages caps contiguous-page merging per IO request (§IV-C:
	// Blaze merges up to four 4 kB pages and never merges across gaps).
	MaxMergePages int
	// IOBufferBytes is the static IO buffer space (64 MB in the paper).
	IOBufferBytes int64
	// BinCount and BinSpaceBytes configure online binning; StageCap
	// overrides the per-proc staging capacity (0 = the backend's default,
	// see bin.Config; set by the staging-buffer ablation).
	BinCount      int
	BinSpaceBytes int64
	StageCap      int
	// PageCache, when non-nil, caches fetched pages across EdgeMap calls
	// (sharded CLOCK by default; see internal/pagecache). The paper's
	// Blaze only evicts IO buffers randomly and names better eviction
	// policies as future work; this is that extension (see the pagecache
	// ablation experiment and DESIGN.md §10).
	PageCache *pagecache.Cache
	// Mem receives memory accounting; it may be nil.
	Mem *metrics.MemAccount
	// Pool retains IO buffers, bin buffer pairs, and stagers across
	// EdgeMap calls (reset, not reallocated), including calls that run at
	// once on one pool (a session's queries, a cluster's machines). With
	// none, each call runs on an empty pool of its own. Allocation is not
	// modeled, so under the virtual-time backend it changes host time only.
	Pool *Pool
	Common
}

// Common is the part of the configuration every engine takes the same way —
// this one, the baselines, the in-core engine, and through Config each
// machine of the scale-out cluster: the cost model, where measurements and
// spans go, and the session identity. internal/registry fills it once per
// engine from its options. Engines that do no IO ignore Stats, and engines
// that cannot join a session ignore the last three fields.
type Common struct {
	// Model is the virtual-time cost model.
	Model costmodel.Model
	// Stats receives IO accounting; it may be nil.
	Stats *metrics.IOStats
	// Tracer, when non-nil, attaches per-proc trace rings to every pipeline
	// stage (coordinator, IO readers, scatter, gather) so runs can emit
	// span timelines and stage statistics (see internal/trace). A nil
	// tracer attaches no ring, which leaves every hot path on its untraced
	// branch: one nil check per emission site.
	Tracer *trace.Tracer

	// Scheds, when non-nil, switches the engine into session mode
	// (internal/session): every device read routes through the device's
	// shared scheduler from this table, which coalesces overlapping
	// requests from concurrent queries and enforces DRR bandwidth sharing.
	// Scheds nil is the classic single-query path, bit-for-bit unchanged.
	Scheds *iosched.Table
	// QueryID is this engine instance's query identity within the session:
	// it owns the instance's cache admissions (quota accounting), scheduler
	// requests, and trace rings. Meaningful only when Scheds is non-nil.
	QueryID int32
	// QueryCache, when non-nil (session mode), receives this query's
	// attributed cache counters: pages the shared cache served to or
	// rejected from this query specifically, rolled up alongside the
	// cache-wide totals.
	QueryCache *metrics.CacheCounters
}

// DefaultConfig mirrors the paper's defaults for a graph with e edges:
// equal scatter/gather procs (8+8 of 16 compute workers), 4-page merge cap,
// 64 MB IO buffers, 1024 bins, and bin space of ~1 byte/edge clamped to
// [4 MB, 256 MB] — the paper's artifact used a flat 256 MB on graphs of
// 8.5-500 GB, and Fig. 10 shows the plateau starts at a few bytes of bin
// space per edge.
func DefaultConfig(e int64) Config {
	space := e
	if space < 4<<20 {
		space = 4 << 20
	}
	if space > 256<<20 {
		space = 256 << 20
	}
	return Config{
		ScatterProcs:  8,
		GatherProcs:   8,
		MaxMergePages: 4,
		IOBufferBytes: 64 << 20,
		BinCount:      1024,
		BinSpaceBytes: space,
		Common:        Common{Model: costmodel.Default()},
	}
}

// WithThreads returns the config with computeWorkers split between scatter
// and gather by ratio (0.5 = equal, the paper's default).
func (c Config) WithThreads(computeWorkers int, ratio float64) Config {
	if computeWorkers < 2 {
		computeWorkers = 2
	}
	s := int(float64(computeWorkers)*ratio + 0.5)
	if s < 1 {
		s = 1
	}
	if s >= computeWorkers {
		s = computeWorkers - 1
	}
	c.ScatterProcs = s
	c.GatherProcs = computeWorkers - s
	return c
}

// TraceQuery returns the query dimension for this config's trace rings:
// the QueryID in session mode, -1 (single-query) otherwise.
func (c Common) TraceQuery() int32 {
	if c.Scheds != nil {
		return c.QueryID
	}
	return -1
}

// CacheOwner returns the page-cache admission owner for this config: the
// QueryID in session mode (quota-accounted), NoOwner otherwise.
func (c Common) CacheOwner() int32 {
	if c.Scheds != nil {
		return c.QueryID
	}
	return pagecache.NoOwner
}

// FrontSpec returns the storage front half this config asks for over the
// given graph sources (a base graph followed by its sealed segments), with
// reader procs named after procName. The blaze engines share it as is.
func (c Config) FrontSpec(procName string, sources ...*Graph) pipeline.Spec {
	var s pipeline.Spec
	c.fillSpec(&s, procName, sources)
	return s
}

// fillSpec writes FrontSpec's result into s, its Sources built in the
// storage s already holds.
func (c Config) fillSpec(s *pipeline.Spec, procName string, sources []*Graph) {
	srcs := s.Sources[:0]
	for _, g := range sources {
		srcs = append(srcs, pipeline.Source{Name: g.Name, CSR: g.CSR, Arr: g.Arr})
	}
	*s = pipeline.Spec{
		Sources:     srcs,
		Model:       c.Model,
		Procs:       c.ScatterProcs + c.GatherProcs,
		MergePages:  c.MaxMergePages,
		BufferBytes: c.IOBufferBytes,
		Cache:       c.PageCache,
		CacheOwner:  c.CacheOwner(),
		QueryCache:  c.QueryCache,
		Scheds:      c.Scheds,
		Tracer:      c.Tracer,
		Query:       c.TraceQuery(),
		ProcName:    procName,
	}
}

func (c Config) validate() error {
	if c.ScatterProcs < 1 || c.GatherProcs < 1 {
		return fmt.Errorf("engine: need at least one scatter and one gather proc")
	}
	if c.MaxMergePages < 1 {
		return fmt.Errorf("engine: MaxMergePages must be >= 1")
	}
	return nil
}
