package main

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"slices"
	"time"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/graph"
	"blaze/internal/ingest"
)

// graphExts are the four artifact files of one graph base.
var graphExts = []string{".gr.index", ".gr.adj.0", ".tgr.index", ".tgr.adj.0"}

type ingestUpdate struct {
	dir      string
	v        uint32
	src, dst []uint32
	batchSrc [][]uint32 // ingestSteps insertion batches
	batchDst [][]uint32
	bfsSrc   uint32 // the highest out-degree vertex, so the traversal covers the graph
	// Retained for verify: the digests of every pass's ingest output and
	// the last pass's repaired and recomputed depths.
	digests  [][32]byte
	repaired []int32
	full     []int32
}

func newIngestUpdate(e *env) (instance, error) {
	p, err := gen.PresetByShort("r2")
	if err != nil {
		return nil, err
	}
	p = p.Scaled(ingestScale)
	p.Seed = e.seed
	w := &ingestUpdate{dir: e.dir, v: p.V}
	d, _ := e.step("gen.Generate", func() error { w.src, w.dst = p.Generate(); return nil })
	e.note("gen.generate_ns_per_edge", float64(d)/float64(p.E))

	deg := make([]uint32, p.V)
	for _, s := range w.src {
		deg[s]++
	}
	for v := range deg {
		if deg[v] > deg[w.bfsSrc] {
			w.bfsSrc = uint32(v)
		}
	}
	rng := gen.NewRNG(e.seed ^ 0x1265)
	batch := int(float64(p.E) * ingestBatchShare)
	for i := 0; i < ingestSteps; i++ {
		bs, bd := make([]uint32, batch), make([]uint32, batch)
		for j := range bs {
			bs[j], bd[j] = uint32(rng.Intn(int(p.V))), uint32(rng.Intn(int(p.V)))
		}
		w.batchSrc, w.batchDst = append(w.batchSrc, bs), append(w.batchDst, bd)
	}
	return w, nil
}

// exhaustion wraps an edge source and notes when it first reports the end
// of input: the instant run formation ends and the k-way merge begins.
type exhaustion struct {
	ingest.EdgeSource
	at time.Time
}

func (x *exhaustion) Next() (uint32, uint32, bool, error) {
	s, d, ok, err := x.EdgeSource.Next()
	if !ok && x.at.IsZero() {
		x.at = time.Now()
	}
	return s, d, ok, err
}

// lifecycle is one pass: ingest the edge list out of core, load the
// result, converge a BFS, then apply steps insertion batches with
// seal + incremental repair each, and recompute from scratch over the
// base plus every segment.
func (w *ingestUpdate) lifecycle(t *tracing, steps int) (res passResult, err error) {
	rec := t.recorder()
	base := filepath.Join(w.dir, "ingested")
	defer func() {
		for _, ext := range graphExts {
			os.Remove(base + ext)
		}
	}()

	var source ingest.EdgeSource = &ingest.SliceSource{Src: w.src, Dst: w.dst}
	var mark *exhaustion
	if rec != nil {
		mark = &exhaustion{EdgeSource: source}
		source = mark
	}
	var st ingest.Stats
	t0 := time.Now()
	err = rec.timed("ingest.Build", -1, -1, func() (err error) {
		st, err = ingest.Build(source, base, ingest.Config{MaxMemBytes: ingestMaxMem, TmpDir: w.dir, Vertices: w.v})
		return err
	})
	built := time.Now()
	if err != nil {
		return res, err
	}
	rate := float64(st.Edges) / built.Sub(t0).Seconds()
	res.extra = map[string]float64{"ingest_edges_per_s": rate, "edges_per_s": rate, "ingest.runs": float64(st.Runs)}
	if mark != nil {
		res.extra["ingest.runform_ns_per_edge"] = float64(mark.at.Sub(t0)) / float64(st.Edges)
		res.extra["ingest.merge_ns_per_edge"] = float64(built.Sub(mark.at)) / float64(st.Edges)
	}
	digest, err := digestFiles(base)
	if err != nil {
		return res, err
	}
	w.digests = append(w.digests, digest)

	eng, err := newRealEngine(st.Edges)
	if err != nil {
		return res, err
	}
	var fwd *engine.Graph
	loadStart := time.Now()
	err = rec.timed("engine.FromFiles", -1, -1, func() (err error) {
		fwd, err = engine.FromFiles(eng.ctx, "ingested", base+".gr.index", base+".gr.adj.0", 1, unpaced, eng.stats, nil)
		return err
	})
	res.extra["graph.load_index_ms"] = float64(time.Since(loadStart)) / 1e6
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := fwd.Close(); err == nil {
			err = cerr
		}
	}()
	sys, err := eng.forPass(t)
	if err != nil {
		return res, err
	}
	dy := engine.NewDynamic(eng.ctx, fwd, nil, unpaced, eng.stats, nil, nil)

	eng.ctx.Run("main", func(p exec.Proc) {
		var q *algo.IncBFS
		if q, _, err = algo.NewIncBFS(sys, p, fwd, w.bfsSrc); err != nil {
			return
		}
		for i := 0; i < steps; i++ {
			var s opSample
			s, err = measure(eng.stats, func() error {
				step := rec.begin("update.Step", -1, i)
				defer rec.end(step)
				for j, u := range w.batchSrc[i] {
					if err := dy.Add(u, w.batchDst[i][j]); err != nil {
						return err
					}
				}
				seal := rec.begin("engine.Dynamic.Seal", step, i)
				es, ed := dy.Seal()
				rec.end(seal)
				repair := rec.begin("algo.IncBFS.Repair", step, i)
				defer rec.end(repair)
				rsys := sys
				if rec != nil {
					rsys = &spanSystem{System: sys, rec: rec, parent: repair, query: i}
				}
				rounds, err := q.Repair(rsys, p, fwd, es, ed)
				res.extra["algo.repair_rounds"] += float64(rounds) / float64(steps)
				return err
			})
			if err != nil {
				return
			}
			res.ops = append(res.ops, s)
		}
		var full []int32
		err = rec.timed("algo.BFSDepths", -1, -1, func() (err error) {
			full, _, err = algo.BFSDepths(sys, p, fwd, w.bfsSrc)
			return err
		})
		if err != nil {
			return
		}
		w.repaired, w.full = q.Depth, full
	})
	return res, err
}

func digestFiles(base string) ([32]byte, error) {
	h := sha256.New()
	for _, ext := range graphExts {
		data, err := os.ReadFile(base + ext)
		if err != nil {
			return [32]byte{}, err
		}
		h.Write(data)
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d, nil
}

// warm runs the lifecycle with two steps: the ingest fills whatever the
// process sets up lazily, and the steps fill the engine's.
func (w *ingestUpdate) warm() error {
	_, err := w.lifecycle(nil, 2)
	w.digests = nil
	return err
}

func (w *ingestUpdate) pass(t *tracing) (passResult, error) {
	return w.lifecycle(t, ingestSteps)
}

// verify checks that every ingest wrote the bytes graph.Build + Transpose
// + WriteFiles write, and that the repaired depths and the recomputed ones
// both equal the serial reference on the base plus every inserted edge.
func (w *ingestUpdate) verify() (checks, failed int, err error) {
	c, err := graph.Build(w.v, w.src, w.dst)
	if err != nil {
		return 0, 0, err
	}
	base := filepath.Join(w.dir, "reference")
	if err := graph.WriteFiles(c, c.Transpose(), base); err != nil {
		return 0, 0, err
	}
	want, err := digestFiles(base)
	if err != nil {
		return 0, 0, err
	}
	for _, got := range w.digests {
		checks++
		if got != want {
			failed++
		}
	}
	src, dst := append([]uint32(nil), w.src...), append([]uint32(nil), w.dst...)
	for i := range w.batchSrc {
		src, dst = append(src, w.batchSrc[i]...), append(dst, w.batchDst[i]...)
	}
	if c, err = graph.Build(w.v, src, dst); err != nil {
		return checks, failed, err
	}
	ref := algo.RefBFSDepth(c, w.bfsSrc)
	for _, got := range [][]int32{w.repaired, w.full} {
		checks++
		if !slices.Equal(got, ref) {
			failed++
		}
	}
	return checks, failed, nil
}

func (w *ingestUpdate) close() error { return nil }
