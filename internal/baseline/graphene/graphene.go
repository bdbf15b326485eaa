// Package graphene reimplements the mechanisms of Graphene (Liu & Huang,
// FAST'17) that the paper analyzes in §III-B and §III-C:
//
//   - Topology-aware partitioning with equal edges per partition,
//     partitions distributed round-robin; with selective scheduling the
//     *active* bytes per partition are wildly uneven on power-law graphs,
//     so per-device IO skews (Fig. 3).
//   - A fixed pairing of one IO thread and one computation thread per SSD
//     ("equally divides cores across IO and computation"); when the fast
//     device outruns the inline-update computation thread, free buffers
//     run out and the device idles — fast IO, slow computation (§III-C).
//   - Large merged IO that also fetches gap pages within a threshold,
//     inflating IO bytes (amplification) and submission time.
//
// Computation threads apply updates inline with atomic operations: the
// per-page step (engine.ApplyPage) and its price (costmodel's AtomicUpdate)
// are blaze-sync's, so this package contributes only the placement and the
// paired-thread sink topology.
//
// Placement detail: each device addresses pages by their logical page
// number (partitions are contiguous logical page ranges, so intra-
// partition requests stay contiguous on the device, which is all the
// timing model observes).
package graphene

import (
	"fmt"

	"blaze/algo"
	"blaze/internal/costmodel"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/graph"
	"blaze/internal/pipeline"
	"blaze/internal/ssd"
	"blaze/internal/trace"
)

// Config parameterizes the baseline.
type Config struct {
	// Pairs is the number of IO+compute thread pairs (= half the thread
	// budget). Pair i reads from device i % NumSSDs.
	Pairs int
	// NumSSDs is the device count.
	NumSSDs int
	// DevOpts configures the baseline's own devices (fault injection,
	// retry policy); empty means stock devices.
	DevOpts []ssd.DeviceOptions
	// Common's Stats receives per-device read accounting (Fig. 3 uses
	// EndEpoch). Graphene places its own devices, so it cannot join a
	// session and ignores the session fields.
	engine.Common
}

// The baseline's fixed IO shape.
const (
	// partitionsPerPair controls partition granularity: total partitions
	// = Pairs * partitionsPerPair, each a contiguous equal-edge range.
	partitionsPerPair = 4
	// maxIOPages is the large-IO size cap in pages.
	maxIOPages = 32
	// gapMergePages merges requests across up to this many inactive
	// pages, reading them anyway (IO amplification).
	gapMergePages = 2
	// buffersPerPair bounds in-flight IO buffers per pair; the strict
	// producer/consumer coupling is what starves fast devices.
	buffersPerPair = 32
)

// DefaultConfig mirrors the paper's 16-thread setup on nssd devices.
func DefaultConfig(nssd int) Config {
	return Config{
		Pairs:   8,
		NumSSDs: nssd,
		Common:  engine.Common{Model: costmodel.Default()},
	}
}

// System implements algo.System over its own partition-placed devices.
// Placements are built lazily per graph, so one System serves a forward
// graph and its transpose (as WCC and BC require).
type System struct {
	Ctx  exec.Context
	Cfg  Config
	prof ssd.Profile
	algo.IterLog

	placements map[*graph.CSR]*placement
}

// placement is one graph's partition layout and device set.
type placement struct {
	devs         []*ssd.Device
	pagesPerPart int64
}

// New builds the system; graphs register on first use and must carry
// in-memory adjacency (engine.BuildPreset graphs do).
func New(ctx exec.Context, cfg Config, prof ssd.Profile) *System {
	if cfg.Pairs < 1 {
		cfg.Pairs = 1
	}
	if cfg.NumSSDs < 1 {
		cfg.NumSSDs = 1
	}
	return &System{
		Ctx:        ctx,
		Cfg:        cfg,
		prof:       prof,
		IterLog:    algo.IterLog{Stats: cfg.Stats},
		placements: map[*graph.CSR]*placement{},
	}
}

// placementFor lazily builds the partition layout for one graph. The
// partitions are copies of the in-memory adjacency, so an index-only graph
// (adjacency left in its file) is refused.
func (s *System) placementFor(g *engine.Graph) (*placement, error) {
	if pl, ok := s.placements[g.CSR]; ok {
		return pl, nil
	}
	c := g.CSR
	if c.Adj == nil {
		return nil, fmt.Errorf("graphene: graph %q has no in-memory adjacency to place (load it with ReadAdj)", g.Name)
	}
	numParts := int64(s.Cfg.Pairs * partitionsPerPair)
	pagesPerPart := (c.NumPages() + numParts - 1) / numParts
	if pagesPerPart < 1 {
		pagesPerPart = 1
	}
	pl := &placement{pagesPerPart: pagesPerPart}
	pl.devs = make([]*ssd.Device, s.Cfg.NumSSDs)
	for d := 0; d < s.Cfg.NumSSDs; d++ {
		pl.devs[d] = ssd.MergeDeviceOptions(s.Cfg.DevOpts).Build(s.Ctx, d, s.prof, &ssd.MemBacking{Data: c.Adj}, s.Cfg.Stats, nil)
	}
	s.placements[g.CSR] = pl
	return pl, nil
}

// Name implements algo.System.
func (s *System) Name() string { return "graphene" }

// VertexMap implements algo.System: both threads of every pair take part.
func (s *System) VertexMap(p exec.Proc, f *frontier.VertexSubset, fn func(uint32) bool) *frontier.VertexSubset {
	return engine.MapVertices(p, f, fn, s.Cfg.Model.VertexOp, 2*s.Cfg.Pairs)
}

// pairOf returns the pair owning a logical page under a placement.
func (pl *placement) pairOf(logical int64, pairs int) int {
	return int((logical / pl.pagesPerPart) % int64(pairs))
}

// EdgeMap implements algo.System. On an unrecoverable device error every
// pair drains, all procs join, and the error is returned.
func (s *System) EdgeMap(p exec.Proc, g *engine.Graph, f *frontier.VertexSubset,
	fns algo.EdgeFuncs, output bool) (*frontier.VertexSubset, error) {

	if err := g.RequireStatic(s.Name()); err != nil {
		return nil, err
	}
	ctx := s.Ctx
	cfg := s.Cfg
	m := cfg.Model
	c := g.CSR
	pl, err := s.placementFor(g)
	if err != nil {
		return nil, err
	}

	ctr := cfg.Tracer.Attach(p, trace.StageCoord, -1)
	var t0 int64
	if ctr.Active() {
		t0 = p.Now()
	}

	// Active logical pages, ascending, then routed to owning pairs.
	f.Seal()
	all := frontier.PagesOf(f, c, 1)
	p.Advance(m.VertexOp * f.Count() / int64(2*cfg.Pairs))
	if ctr.Active() {
		t1 := p.Now()
		ctr.Span(trace.OpPhase, -1, t0, t1, int64(trace.PhaseSource))
		t0 = t1
	}
	if all.Pages() == 0 {
		if !output {
			return nil, nil
		}
		return frontier.NewVertexSubset(c.V), nil
	}
	perPair := make([][]int64, cfg.Pairs)
	for _, logical := range all.PerDev[0] {
		pr := pl.pairOf(logical, cfg.Pairs)
		perPair[pr] = append(perPair[pr], logical)
	}

	updCost := m.AtomicUpdate(m.RandomUpdate, g.Locality, g.HotFrac, cfg.Pairs)

	ab := &exec.Latch{}
	wg := ctx.NewWaitGroup()
	wg.Add(cfg.Pairs)
	outFronts := make([]*frontier.VertexSubset, cfg.Pairs)
	frees := make([]exec.Queue[*pipeline.Buffer], cfg.Pairs)
	for pr := 0; pr < cfg.Pairs; pr++ {
		pair := pr
		// Per-pair buffer queues: the strict 1 IO : 1 compute coupling.
		free, filled := pipeline.NewQueues(ctx, buffersPerPair)
		frees[pr] = free
		pipeline.Stock(p, free, buffersPerPair, maxIOPages*ssd.PageSize)
		r := &pipeline.Reader{
			Name:   fmt.Sprintf("gr-io%d", pair),
			Device: pl.devs[pair%cfg.NumSSDs],
			Dev:    pair % cfg.NumSSDs,
			Pages:  perPair[pair],
			Free:   free,
			Filled: filled,
			Latch:  ab,
			// Large IO: merge across gaps up to gapMergePages wide, capped
			// at maxIOPages, never across a partition boundary.
			Merge:  pipeline.Merge{MaxPages: maxIOPages, GapPages: gapMergePages, PartPages: pl.pagesPerPart},
			Model:  &m,
			Source: g.Name,
		}
		// No shared closer proc: each pair's IO proc ends its own filled
		// stream, releasing exactly its paired compute proc.
		ctx.Go(r.Name, func(io exec.Proc) {
			cfg.Tracer.Attach(io, trace.StageIO, int32(r.Dev))
			r.Run(io)
			filled.Close()
		})
		ctx.Go(fmt.Sprintf("gr-compute%d", pair), func(cp exec.Proc) {
			cfg.Tracer.Attach(cp, trace.StageCompute, int32(pair))
			var out *frontier.VertexSubset
			if output {
				out = frontier.NewVertexSubset(c.V)
			}
			pipeline.Drain(cp, free, filled, ab, new([pipeline.ClaimBatch]*pipeline.Buffer), func(buf *pipeline.Buffer) {
				for pg := 0; pg < buf.NumPages; pg++ {
					logical := buf.Start + int64(pg)
					pageData := buf.Data[pg*ssd.PageSize : (pg+1)*ssd.PageSize]
					engine.ApplyPage(cp, c, f, logical, pageData, fns.Scatter, fns.Gather, fns.Cond, out, m, updCost)
				}
			})
			outFronts[pair] = out
			wg.Done(cp)
		})
	}
	wg.Wait(p)
	for _, free := range frees {
		free.Close()
	}
	if ctr.Active() {
		t2 := p.Now()
		ctr.Span(trace.OpPhase, -1, t0, t2, int64(trace.PhasePipeline))
		t0 = t2
	}
	if err := ab.Err(); err != nil {
		return nil, err
	}
	if !output {
		return nil, nil
	}
	merged := pipeline.MergeFrontiers(c.V, outFronts)
	if ctr.Active() {
		ctr.Span(trace.OpPhase, -1, t0, p.Now(), int64(trace.PhaseMerge))
	}
	return merged, nil
}
