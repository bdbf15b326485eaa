// Package inmem implements a Ligra-style *in-core* engine: the whole
// adjacency lives in DRAM and EdgeMap traverses it directly with atomic
// updates, no IO at all. The paper uses in-core frameworks (Ligra, Galois,
// GraphIt) as the memory-hungry alternative out-of-core processing exists
// to avoid (§II) and notes that they simply run out of memory on
// hyperlink14 (§V-F). This engine implements algo.System so the same query
// code runs on it, and the `incore` experiment quantifies both sides of
// the trade: runtime (no IO to wait for, but atomic update costs) and
// memory footprint (the full graph, vs Blaze's 10-50%).
//
// Like Ligra, updates use compare-and-swap; the virtual-time cost model
// therefore charges the same atomic-update price (costmodel's
// AtomicUpdate) as the synchronization-based Blaze variant. The updates
// themselves are the user's plain gather, made safe only by the
// virtual-time backend running one proc at a time, so internal/registry
// builds this engine under exec.Sim only.
package inmem

import (
	"fmt"

	"blaze/algo"
	"blaze/internal/costmodel"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/graph"
	"blaze/internal/pipeline"
	"blaze/internal/trace"
)

// Config parameterizes the in-core engine.
type Config struct {
	// Workers is the computation proc count.
	Workers int
	// Common's Tracer attaches per-proc trace rings to the compute workers;
	// the engine does no IO and cannot join a session, so it ignores Stats
	// and the session fields.
	engine.Common
}

// DefaultConfig matches the paper's 16-thread comparisons.
func DefaultConfig() Config {
	return Config{Workers: 16, Common: engine.Common{Model: costmodel.Default()}}
}

// System implements algo.System fully in memory.
type System struct {
	Ctx exec.Context
	Cfg Config
	algo.IterLog
}

// New returns an in-core system.
func New(ctx exec.Context, cfg Config) *System {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	return &System{Ctx: ctx, Cfg: cfg}
}

// Name implements algo.System.
func (s *System) Name() string { return "ligra-incore" }

// MemBytes returns the DRAM footprint of holding c in core: packed
// adjacency plus the index, the §II cost of in-core processing.
func MemBytes(c *graph.CSR) int64 {
	return c.AdjBytes() + c.IndexBytes()
}

// EdgeMap implements algo.System: frontier vertices are chunked across
// workers; each worker walks its chunk's edges straight out of DRAM and
// applies gather inline with CAS-priced updates.
func (s *System) EdgeMap(p exec.Proc, g *engine.Graph, f *frontier.VertexSubset,
	fns algo.EdgeFuncs, output bool) (*frontier.VertexSubset, error) {

	if err := g.RequireStatic(s.Name()); err != nil {
		return nil, err
	}
	c := g.CSR
	if c.Adj == nil {
		return nil, fmt.Errorf("inmem: graph %q has no in-memory adjacency (load it with ReadAdj)", g.Name)
	}
	f.Seal()
	active := make([]uint32, 0, f.Count())
	f.ForEach(func(v uint32) { active = append(active, v) })
	if len(active) == 0 {
		if !output {
			return nil, nil
		}
		return frontier.NewVertexSubset(c.V), nil
	}

	m := s.Cfg.Model
	workers := s.Cfg.Workers
	updCost := m.AtomicUpdate(m.RandomUpdate, g.Locality, g.HotFrac, workers)

	// Edge-balanced chunking: Ligra parallelizes over edges, so chunk
	// boundaries follow the active degree prefix sum rather than vertex
	// counts (vertex chunks would hand one worker all of a hub's edges).
	prefix := make([]int64, len(active)+1)
	for i, v := range active {
		prefix[i+1] = prefix[i] + int64(c.Degree(v))
	}
	totalEdges := prefix[len(active)]
	bounds := make([]int, workers+1)
	j := 0
	for w := 1; w < workers; w++ {
		target := totalEdges * int64(w) / int64(workers)
		for j < len(active) && prefix[j] < target {
			j++
		}
		bounds[w] = j
	}
	bounds[workers] = len(active)
	outs := make([]*frontier.VertexSubset, workers)
	wg := s.Ctx.NewWaitGroup()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		id := w
		lo := bounds[id]
		hi := bounds[id+1]
		s.Ctx.Go(fmt.Sprintf("inmem%d", id), func(wp exec.Proc) {
			wtr := s.Cfg.Tracer.Attach(wp, trace.StageCompute, int32(id))
			var out *frontier.VertexSubset
			if output {
				out = frontier.NewVertexSubset(c.V)
			}
			var from int64
			if wtr.Active() {
				from = wp.Now()
			}
			var edges, produced int64
			// wp.Sync orders the inline updates in virtual time; under
			// Sim procs run one at a time, so the unsynchronized user
			// gather is safe while the model charges the CAS cost.
			wp.Sync()
			for _, v := range active[lo:hi] {
				b, e := c.EdgeRange(v)
				for i := b; i < e; i++ {
					d := graph.GetEdge(c.Adj, i)
					if fns.Cond(d) {
						if fns.Gather(d, fns.Scatter(v, d)) && output {
							out.Add(d)
						}
						produced++
					}
				}
				edges += e - b
			}
			wp.Advance(m.EdgeScan*edges + updCost*produced +
				m.VertexOp*int64(hi-lo))
			if wtr.Active() {
				wtr.Span(trace.OpGatherBin, int32(id), from, wp.Now(), produced)
			}
			outs[id] = out
			wg.Done(wp)
		})
	}
	wg.Wait(p)
	if !output {
		return nil, nil
	}
	return pipeline.MergeFrontiers(c.V, outs), nil
}

// VertexMap implements algo.System.
func (s *System) VertexMap(p exec.Proc, f *frontier.VertexSubset, fn func(uint32) bool) *frontier.VertexSubset {
	return engine.MapVertices(p, f, fn, s.Cfg.Model.VertexOp, s.Cfg.Workers)
}
