package main

import (
	"fmt"
	"math"
	"path/filepath"
	"time"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/graph"
	"blaze/internal/metrics"
	"blaze/internal/registry"
	"blaze/internal/trace"
)

// step runs one set-up step as a span and returns how long it took.
func (e *env) step(name string, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := e.rec.timed(name, -1, -1, fn)
	return time.Since(t0), err
}

// note records a set-up layer metric.
func (e *env) note(name string, v float64) {
	if e.layers == nil {
		e.layers = map[string]float64{}
	}
	e.layers[name] = v
}

// generated is a preset graph in memory, as the set-up holds it before
// writing it out.
type generated struct {
	preset gen.Preset
	c, tr  *graph.CSR
}

// generate draws the preset's edge list from the seed and builds both
// directions, timing each layer.
func generate(e *env, short string, scale float64) (*generated, error) {
	p, err := gen.PresetByShort(short)
	if err != nil {
		return nil, err
	}
	p = p.Scaled(scale)
	p.Seed = e.seed
	var src, dst []uint32
	d, _ := e.step("gen.Generate", func() error { src, dst = p.Generate(); return nil })
	e.note("gen.generate_ns_per_edge", float64(d)/float64(p.E))
	g := &generated{preset: p}
	d, err = e.step("graph.Build", func() error { g.c, err = graph.Build(p.V, src, dst); return err })
	if err != nil {
		return nil, err
	}
	e.note("graph.build_ns_per_edge", float64(d)/float64(p.E))
	d, _ = e.step("graph.Transpose", func() error { g.tr = g.c.Transpose(); return nil })
	e.note("graph.transpose_ns_per_edge", float64(d)/float64(p.E))
	return g, nil
}

// write puts both directions under base (<base>.gr.*, <base>.tgr.*).
func (g *generated) write(e *env, base string) error {
	d, err := e.step("graph.WriteFiles", func() error { return graph.WriteFiles(g.c, g.tr, base) })
	e.note("graph.write_mb_per_s", float64(g.c.TotalBytes()+g.tr.TotalBytes())/1e6/d.Seconds())
	return err
}

// load opens one direction of the files under base with the adjacency
// left on disk. ext is ".gr" or ".tgr".
func load(e *env, ctx exec.Context, base, ext string, stats *metrics.IOStats) (*engine.Graph, error) {
	var g *engine.Graph
	d, err := e.step("engine.FromFiles", func() (err error) {
		g, err = engine.FromFiles(ctx, filepath.Base(base)+ext, base+ext+".index", base+ext+".adj.0", 1, unpaced, stats, nil)
		return err
	})
	e.note("graph.load_index_ms", float64(d)/1e6)
	return g, err
}

// referenceCSR reloads one direction fully into memory for the serial
// references. The set-up's own in-memory copy is dropped once the files
// are written, so that the heap the timed queries run in holds the
// program's data and little of the benchmark's.
func referenceCSR(base, ext string) (*graph.CSR, error) {
	c, err := graph.ReadIndex(base + ext + ".index")
	if err != nil {
		return nil, err
	}
	if err := graph.ReadAdj(base+ext+".adj.0", c); err != nil {
		return nil, err
	}
	return c, nil
}

// realEngine is the real-backend system under test: the blaze engine over
// one unpaced device, four workers, page cache off, with the run pool
// blaze.New gives the real backend.
type realEngine struct {
	ctx   *exec.Real
	stats *metrics.IOStats
	pool  *engine.Pool
	sys   algo.System
	total int64 // |E|, which sizes the engine's bin space
}

func newRealEngine(edges int64) (*realEngine, error) {
	r := &realEngine{ctx: exec.NewReal(), stats: metrics.NewIOStats(1), pool: engine.NewPool(), total: edges}
	var err error
	r.sys, err = r.system(nil)
	return r, err
}

func (r *realEngine) system(tracer *trace.Tracer) (algo.System, error) {
	return registry.New("blaze", r.ctx, registry.Options{
		Edges: r.total, Workers: realWorkers, NumDev: 1, Profile: unpaced,
		Stats: r.stats, Pool: r.pool, Tracer: tracer,
	})
}

// forPass returns the system a pass runs on: the untraced one, or a second
// engine over the same pool with the engine's own rings attached.
func (r *realEngine) forPass(t *tracing) (algo.System, error) {
	if t == nil {
		return r.sys, nil
	}
	return r.system(t.tracer)
}

// ---------------------------------------------------------------- pr_dense

type prDense struct {
	*realEngine
	base  string
	g     *engine.Graph // transpose, adjacency on disk
	edges int64         // edges one PageRank scans, from the reference recurrence
	rank  []float64     // last result, checked in verify
}

func newPRDense(e *env) (instance, error) {
	gr, err := generate(e, "r2", prDenseScale)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(e.dir, "g")
	if err := gr.write(e, base); err != nil {
		return nil, err
	}
	w := &prDense{base: base}
	e.reference(func() { w.edges = prActiveEdges(gr.tr, prIters) })
	if w.realEngine, err = newRealEngine(gr.preset.E); err != nil {
		return nil, err
	}
	w.g, err = load(e, w.ctx, base, ".tgr", w.stats)
	return w, err
}

// prActiveEdges counts the edges PageRank-delta scans in iters rounds over
// c: round 0 scans every vertex, and a vertex is active in round k+1 when
// some active vertex pointed at it in round k. With eps = 1e-9 every
// receiver passes the delta filter, so the recurrence is exact.
func prActiveEdges(c *graph.CSR, iters int) int64 {
	active := make([]bool, c.V)
	for i := range active {
		active[i] = true
	}
	var edges int64
	for k := 0; k < iters; k++ {
		next := make([]bool, c.V)
		for s := uint32(0); s < c.V; s++ {
			if !active[s] {
				continue
			}
			b, e := c.EdgeRange(s)
			for i := b; i < e; i++ {
				next[graph.GetEdge(c.Adj, i)] = true
			}
			edges += e - b
		}
		active = next
	}
	return edges
}

func (w *prDense) pageRank(t *tracing, query int) (opSample, error) {
	sys, err := w.forPass(t)
	if err != nil {
		return opSample{}, err
	}
	s, err := measure(w.stats, func() error {
		return traceQuery(t, "algo.PageRank", query, sys, func(sys algo.System) (err error) {
			w.ctx.Run("main", func(p exec.Proc) {
				w.rank, _, err = algo.PageRankDrive(algo.DriverFor(w.sys), sys, p, w.g, prEps, algo.Convergence{MaxIters: prIters})
			})
			return err
		})
	})
	s.Edges = w.edges
	return s, err
}

func (w *prDense) warm() error {
	_, err := w.pageRank(nil, -1)
	return err
}

func (w *prDense) pass(t *tracing) (passResult, error) {
	s, err := w.pageRank(t, 0)
	return passResult{ops: []opSample{s}}, err
}

func (w *prDense) verify() (int, int, error) {
	ref, err := referenceCSR(w.base, ".tgr")
	if err != nil {
		return 0, 0, err
	}
	return 1, rankMismatch(w.rank, algo.RefPageRankDelta(ref, prEps, prIters)), nil
}

// rankMismatch is 1 when rank strays from the serial reference by more
// than summation order explains (the tolerance algo's own tests use).
func rankMismatch(rank, ref []float64) int {
	if len(rank) != len(ref) {
		return 1
	}
	for v := range ref {
		if math.Abs(rank[v]-ref[v])/math.Max(ref[v], 1e-12) > 1e-6 {
			return 1
		}
	}
	return 0
}

func (w *prDense) close() error { return w.g.Close() }

// -------------------------------------------------------------- bfs_sparse

type bfsSparse struct {
	*realEngine
	base    string
	g       *engine.Graph // forward, adjacency on disk
	sources []uint32
	reach   []int64   // vertices the reference reaches from each source
	edges   []int64   // out-edges of those vertices: what one BFS scans
	parents [][]int32 // last pass, narrowed to int32 to keep the benchmark's heap small
	// mid is a frontier recorded halfway through the first traced BFS, the
	// sparse input of the frontier probes.
	mid []uint32
}

func newBFSSparse(e *env) (instance, error) {
	gr, err := generate(e, "sk", bfsSparseScale)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(e.dir, "g")
	if err := gr.write(e, base); err != nil {
		return nil, err
	}
	w := &bfsSparse{base: base, parents: make([][]int32, bfsSparseSources)}
	e.reference(func() { w.sources, w.reach, w.edges = drawSources(gr.c, e.seed, bfsSparseSources) })
	if w.realEngine, err = newRealEngine(gr.preset.E); err != nil {
		return nil, err
	}
	w.g, err = load(e, w.ctx, base, ".gr", w.stats)
	return w, err
}

// drawSources draws n distinct BFS sources from the seed, keeping a vertex
// only when the reference BFS reaches bfsMinReachShare of the graph from
// it. It also returns, per source, the reached vertices and their
// out-edges.
func drawSources(c *graph.CSR, seed uint64, n int) (sources []uint32, reach, edges []int64) {
	rng := gen.NewRNG(seed ^ 0xb5f5)
	seen := map[uint32]bool{}
	for tries := 0; len(sources) < n && tries < 64*n; tries++ {
		v := uint32(rng.Intn(int(c.V)))
		if seen[v] || c.Degree(v) == 0 {
			continue
		}
		seen[v] = true
		r, e := reachOf(c, algo.RefBFSDepth(c, v))
		if float64(r) < bfsMinReachShare*float64(c.V) {
			continue
		}
		sources, reach, edges = append(sources, v), append(reach, r), append(edges, e)
	}
	return sources, reach, edges
}

func reachOf(c *graph.CSR, depth []int32) (vertices, edges int64) {
	for v, d := range depth {
		if d >= 0 {
			vertices++
			edges += int64(c.Degree(uint32(v)))
		}
	}
	return vertices, edges
}

// bfs runs source i and returns the sample, the parent array and whether
// the reached count matches the reference.
func (w *bfsSparse) bfs(t *tracing, sys algo.System, i int) (opSample, []int64, error) {
	var parent []int64
	s, err := measure(w.stats, func() error {
		return traceQuery(t, "algo.BFS", i, sys, func(sys algo.System) (err error) {
			if ss, ok := sys.(*spanSystem); ok && i == 0 {
				ss.onEdgeMap = w.recordMid
			}
			w.ctx.Run("main", func(p exec.Proc) {
				parent, _, err = algo.BFSDrive(algo.DriverFor(w.sys), sys, p, w.g, w.sources[i], algo.Convergence{})
			})
			return err
		})
	})
	s.Edges = w.edges[i]
	return s, parent, err
}

// recordMid keeps the frontier of the 30th round, about the middle of a
// ~60-round traversal.
func (w *bfsSparse) recordMid(call int, f *frontier.VertexSubset) {
	if call != 30 {
		return
	}
	w.mid = w.mid[:0]
	f.ForEach(func(v uint32) { w.mid = append(w.mid, v) })
}

func (w *bfsSparse) warm() error {
	if len(w.sources) < bfsSparseSources {
		return fmt.Errorf("bfs_sparse: only %d of %d sources reach %.0f%% of the graph", len(w.sources), bfsSparseSources, 100*bfsMinReachShare)
	}
	_, _, err := w.bfs(nil, w.sys, 0)
	return err
}

func (w *bfsSparse) pass(t *tracing) (passResult, error) {
	sys, err := w.forPass(t)
	if err != nil {
		return passResult{}, err
	}
	var res passResult
	for i := range w.sources {
		s, parent, err := w.bfs(t, sys, i)
		if err != nil {
			return res, err
		}
		res.ops = append(res.ops, s)
		// Every sample gets the cheap check now; the last pass keeps its
		// parents for the full check in verify.
		var reached int64
		narrow := make([]int32, len(parent))
		for v, p := range parent {
			narrow[v] = int32(p)
			if p >= 0 {
				reached++
			}
		}
		if reached != w.reach[i] {
			res.failed++
		}
		w.parents[i] = narrow
	}
	return res, nil
}

func (w *bfsSparse) verify() (checks, failed int, err error) {
	ref, err := referenceCSR(w.base, ".gr")
	if err != nil {
		return 0, 0, err
	}
	for i, src := range w.sources {
		failed += parentsMismatch(ref, src, w.parents[i])
	}
	return len(w.sources), failed, nil
}

// parentsMismatch is 1 unless parent is a valid BFS tree of c from src.
func parentsMismatch(c *graph.CSR, src uint32, parent []int32) int {
	wide := make([]int64, len(parent))
	for v, p := range parent {
		wide[v] = int64(p)
	}
	if len(wide) != int(c.V) {
		return 1
	}
	if _, ok := algo.CheckParents(c, src, wide, algo.RefBFSDepth(c, src)); !ok {
		return 1
	}
	return 0
}

func (w *bfsSparse) close() error { return w.g.Close() }
