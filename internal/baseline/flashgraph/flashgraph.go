// Package flashgraph reimplements the mechanisms of FlashGraph (Zheng et
// al., FAST'15) that the paper analyzes in §III-A: a semi-external engine
// that avoids atomics via message passing. Vertices are range-partitioned
// across computation threads by vertex ID; scatter appends (dst, value)
// messages to the owner thread's queue, and all messages are processed at
// the end of each iteration, after IO completes.
//
// Two consequences the paper measures:
//
//   - Skewed computation (Fig. 2): on power-law graphs with in-degree mass
//     concentrated in a vertex-ID range, one owner processes far more
//     messages than the rest, and the device sits idle until the straggler
//     finishes each iteration's processing phase.
//   - An LRU page cache (which Blaze lacks) makes FlashGraph slightly
//     faster on high-locality graphs like sk2005 (§V-B).
package flashgraph

import (
	"fmt"
	"sync"

	"blaze/algo"
	"blaze/internal/costmodel"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/metrics"
	"blaze/internal/pagecache"
	"blaze/internal/pipeline"
	"blaze/internal/trace"
)

// Config parameterizes the baseline.
type Config struct {
	// ComputeWorkers is the number of computation threads (message owners).
	ComputeWorkers int
	// CacheBytes is the LRU page cache budget.
	CacheBytes int64
	// Common's Scheds switches the baseline into session mode: device reads
	// route through the shared schedulers, while the LRU page cache stays
	// private to this instance, i.e. per query — FlashGraph's
	// per-application cache, faithfully.
	engine.Common
}

// ioBufferBytes bounds in-flight IO buffers.
const ioBufferBytes = 64 << 20

// DefaultConfig mirrors the paper's 16-thread comparison setup with a
// 64 MB page cache.
func DefaultConfig() Config {
	return Config{
		ComputeWorkers: 16,
		CacheBytes:     64 << 20,
		Common:         engine.Common{Model: costmodel.Default()},
	}
}

// System implements algo.System. The page cache persists across EdgeMap
// calls (iterations), which is what makes repeated traversals of
// high-locality graphs cheap.
type System struct {
	Ctx exec.Context
	Cfg Config
	algo.IterLog
	cache *pagecache.Cache
}

// New returns a FlashGraph-style system.
func New(ctx exec.Context, cfg Config) *System {
	if cfg.ComputeWorkers < 1 {
		cfg.ComputeWorkers = 1
	}
	return &System{
		Ctx:     ctx,
		Cfg:     cfg,
		IterLog: algo.IterLog{Stats: cfg.Stats},
		// FlashGraph's cache is the §III-A LRU: the single-shard legacy
		// policy, so the baseline's recency order (and modeled timings)
		// match the original global-list implementation exactly.
		cache: pagecache.NewWithPolicy(cfg.CacheBytes, pagecache.PolicyLRU),
	}
}

// Name implements algo.System.
func (s *System) Name() string { return "flashgraph" }

// VertexMap implements algo.System.
func (s *System) VertexMap(p exec.Proc, f *frontier.VertexSubset, fn func(uint32) bool) *frontier.VertexSubset {
	return engine.MapVertices(p, f, fn, s.Cfg.Model.VertexOp, s.Cfg.ComputeWorkers)
}

type message struct {
	dst uint32
	val float64
}

// owner returns the computation thread owning vertex v under range
// partitioning — FlashGraph's assignment "based on the vertex ID" (§III-A).
func owner(v, n uint32, workers int) int {
	o := int(uint64(v) * uint64(workers) / uint64(n))
	if o >= workers {
		o = workers - 1
	}
	return o
}

// EdgeMap implements algo.System with the two-phase message-passing
// execution: (IO + scatter) then a barrier, then message processing. On an
// unrecoverable device error the pipeline drains, every proc joins, and
// the error is returned with a nil frontier.
func (s *System) EdgeMap(p exec.Proc, g *engine.Graph, f *frontier.VertexSubset,
	fns algo.EdgeFuncs, output bool) (*frontier.VertexSubset, error) {

	if err := g.RequireStatic(s.Name()); err != nil {
		return nil, err
	}
	ctx := s.Ctx
	cfg := s.Cfg
	m := cfg.Model
	c := g.CSR
	workers := cfg.ComputeWorkers

	// The front half with single-page requests and the LRU cache in front
	// of every device. FlashGraph synchronizes before every cache access —
	// including misses — so the probe itself syncs; with one-page runs the
	// multi-page probe degenerates to the single-page hit/miss FlashGraph
	// models. The cache is private to this instance, so admissions have no
	// owner to charge.
	fr, err := pipeline.Open(ctx, p, f, pipeline.Spec{
		Sources:     []pipeline.Source{{Name: g.Name, CSR: c, Arr: g.Arr}},
		Model:       m,
		Procs:       workers,
		MergePages:  1,
		BufferBytes: ioBufferBytes,
		Cache:       s.cache,
		CacheOwner:  pagecache.NoOwner,
		QueryCache:  cfg.QueryCache,
		ProbeSyncs:  true,
		Scheds:      cfg.Scheds,
		Tracer:      cfg.Tracer,
		Query:       cfg.TraceQuery(),
		ProcName:    "fg-io",
	})
	if fr == nil {
		if err != nil || !output {
			return nil, err
		}
		return frontier.NewVertexSubset(c.V), nil
	}
	fr.Start()

	// Phase 1: scatter procs turn pages into messages routed to owners.
	msgs := make([][]message, workers)
	var msgMu []sync.Mutex = make([]sync.Mutex, workers)
	scatterWG := ctx.NewWaitGroup()
	scatterWG.Add(workers)
	for w := 0; w < workers; w++ {
		id := w
		ctx.Go(fmt.Sprintf("fg-scatter%d", id), func(sp exec.Proc) {
			cfg.Tracer.AttachQuery(sp, trace.StageScatter, int32(id), cfg.TraceQuery())
			local := make([][]message, workers)
			flush := func(o int) {
				if len(local[o]) == 0 {
					return
				}
				sp.Sync()
				msgMu[o].Lock()
				msgs[o] = append(msgs[o], local[o]...)
				msgMu[o].Unlock()
				local[o] = local[o][:0]
			}
			fr.Drain(sp, new([pipeline.ClaimBatch]*pipeline.Buffer), func(buf *pipeline.Buffer) {
				logical := g.Arr.Logical(buf.Dev, buf.Start)
				var produced int64
				vertices, edges := engine.ForEachActiveEdge(c, f, logical, buf.Data, func(src, d uint32) {
					if fns.Cond(d) {
						o := owner(d, c.V, workers)
						local[o] = append(local[o], message{d, fns.Scatter(src, d)})
						produced++
						if len(local[o]) >= 256 {
							flush(o)
						}
					}
				})
				sp.Advance(m.PageOverhead + m.VertexOp*vertices + m.EdgeScan*edges + m.MsgEnqueue*produced)
			})
			for o := range local {
				flush(o)
			}
			scatterWG.Done(sp)
		})
	}
	scatterWG.Wait(p)
	if err := fr.Close(p); err != nil {
		// The iteration barrier was never reached: drop the queued messages
		// and report the failure before the processing phase starts.
		return nil, err
	}
	if debugPhase != nil {
		debugPhase("scatter-end", p.Now())
	}

	// Phase 2 (after the iteration barrier): each owner processes its own
	// message queue. The straggler — the owner of the hottest vertex-ID
	// range — determines the phase length, and the device idles meanwhile.
	if debugMsgHist != nil {
		counts := make([]int, workers)
		for o := range msgs {
			counts[o] = len(msgs[o])
		}
		debugMsgHist(counts)
	}
	procWG := ctx.NewWaitGroup()
	procWG.Add(workers)
	outFronts := make([]*frontier.VertexSubset, workers)
	updCost := m.Update(m.MsgProcess, g.Locality)
	for w := 0; w < workers; w++ {
		id := w
		ctx.Go(fmt.Sprintf("fg-process%d", id), func(pp exec.Proc) {
			ptr := cfg.Tracer.AttachQuery(pp, trace.StageGather, int32(id), cfg.TraceQuery())
			var out *frontier.VertexSubset
			if output {
				out = frontier.NewVertexSubset(c.V)
			}
			mine := msgs[id]
			var from int64
			if ptr.Active() {
				from = pp.Now()
			}
			pp.Advance(int64(len(mine)) * updCost)
			for _, msg := range mine {
				if fns.Gather(msg.dst, msg.val) && output {
					out.Add(msg.dst)
				}
			}
			if ptr.Active() {
				ptr.Span(trace.OpGatherBin, int32(id), from, pp.Now(), int64(len(mine)))
			}
			outFronts[id] = out
			procWG.Done(pp)
		})
	}
	procWG.Wait(p)
	if debugPhase != nil {
		debugPhase("process-end", p.Now())
	}
	var merged *frontier.VertexSubset
	if output {
		merged = pipeline.MergeFrontiers(c.V, outFronts)
	}
	fr.EndMerge(p)
	return merged, nil
}

// debugMsgHist, when set by tests, receives the per-owner message counts
// of each EdgeMap.
var debugMsgHist func([]int)

// debugPhase, when set by tests, receives phase boundary timestamps.
var debugPhase func(string, int64)

// CacheStats exposes the cache counters for tests and the ablation tables.
func (s *System) CacheStats() metrics.CacheStats { return s.cache.StatsDetail() }
