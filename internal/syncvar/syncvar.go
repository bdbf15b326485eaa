// Package syncvar implements the synchronization-based variant of Blaze
// the paper compares against in Figure 8(b): the same out-of-core IO
// pipeline, but instead of online binning, computation procs apply gather
// updates inline with atomic operations (compare-and-swap style). On
// power-law graphs the atomic penalty plus cache-line contention on
// high-in-degree vertices keeps the device underutilized on
// computation-heavy queries — the effect online binning exists to remove.
//
// The storage side (page frontier, per-device readers, page cache, buffer
// queues, drain-and-recycle shutdown) is pipeline.Open, the per-page step
// is engine.ApplyPage and the price is costmodel's AtomicUpdate; this
// package only contributes the sink topology: every compute worker is a
// combined scatter+apply proc draining the shared filled queue.
//
// The variant runs under the virtual-time backend only: under the real-time
// backend the serialized gather-per-vertex guarantee does not hold, so
// internal/registry builds it under exec.Sim alone, where proc execution is
// serialized and the atomic costs are modeled.
package syncvar

import (
	"fmt"

	"blaze/algo"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/pipeline"
	"blaze/internal/ssd"
	"blaze/internal/trace"
)

// System is the sync-based engine; it implements algo.System.
type System struct {
	Ctx exec.Context
	Cfg engine.Config
	algo.IterLog
}

// New returns the variant configured like a Blaze instance: all compute
// workers become combined scatter+apply procs. A config without a pool gets
// one of its own, as algo.NewBlaze gives it, so calls share it.
func New(ctx exec.Context, cfg engine.Config) *System {
	if cfg.Pool == nil {
		cfg.Pool = engine.NewPool()
	}
	return &System{Ctx: ctx, Cfg: cfg, IterLog: algo.IterLog{Stats: cfg.Stats}}
}

// Name implements algo.System.
func (s *System) Name() string { return "blaze-sync" }

// VertexMap implements algo.System.
func (s *System) VertexMap(p exec.Proc, f *frontier.VertexSubset, fn func(uint32) bool) *frontier.VertexSubset {
	return engine.VertexMap(p, f, fn, s.Cfg)
}

// EdgeMap implements algo.System: the same page pipeline as Blaze, with
// inline atomic gathers on the computation procs instead of bins. It fails
// cleanly like the binning engine: on the first unrecoverable device error
// the pipeline drains, every proc joins, and the error is returned.
func (s *System) EdgeMap(p exec.Proc, g *engine.Graph, f *frontier.VertexSubset,
	fns algo.EdgeFuncs, output bool) (*frontier.VertexSubset, error) {

	if err := g.RequireStatic(s.Name()); err != nil {
		return nil, err
	}
	ctx := s.Ctx
	cfg := s.Cfg
	m := cfg.Model
	c := g.CSR
	workers := cfg.ScatterProcs + cfg.GatherProcs

	// The optional page cache (a Blaze-side extension, see engine.EdgeMap)
	// applies to the sync variant too: FrontSpec carries it.
	fr, err := pipeline.Open(ctx, p, f, cfg.FrontSpec("sync-io", g))
	if fr == nil {
		if err != nil || !output {
			return nil, err
		}
		return frontier.NewVertexSubset(c.V), nil
	}
	fr.Start()

	// Combined scatter+apply procs: every update pays the atomic price.
	updCost := m.AtomicUpdate(m.GatherUpdate, g.Locality, g.HotFrac, workers)
	wg := ctx.NewWaitGroup()
	wg.Add(workers)
	outFronts := make([]*frontier.VertexSubset, workers)
	for w := 0; w < workers; w++ {
		id := w
		ctx.Go(fmt.Sprintf("sync-worker%d", id), func(wp exec.Proc) {
			cfg.Tracer.AttachQuery(wp, trace.StageCompute, int32(id), cfg.TraceQuery())
			var out *frontier.VertexSubset
			if output {
				out = frontier.NewVertexSubset(c.V)
			}
			fr.Drain(wp, new([pipeline.ClaimBatch]*pipeline.Buffer), func(buf *pipeline.Buffer) {
				for pg := 0; pg < buf.NumPages; pg++ {
					logical := g.Arr.Logical(buf.Dev, buf.Start+int64(pg))
					pageData := buf.Data[pg*ssd.PageSize : (pg+1)*ssd.PageSize]
					engine.ApplyPage(wp, c, f, logical, pageData, fns.Scatter, fns.Gather, fns.Cond, out, m, updCost)
				}
			})
			outFronts[id] = out
			wg.Done(wp)
		})
	}
	wg.Wait(p)
	if err := fr.Close(p); err != nil || !output {
		return nil, err
	}
	merged := pipeline.MergeFrontiers(c.V, outFronts)
	fr.EndMerge(p)
	return merged, nil
}
