package algo_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/graph"
	"blaze/internal/metrics"
	"blaze/internal/ssd"
)

// edgeMapInput is what one EdgeMap call was handed: the graph, the frontier
// itself (for identity checks) and what a reader saw of it on the way in.
type edgeMapInput struct {
	g            *engine.Graph
	f            *frontier.VertexSubset
	count, bytes int64
	dense        bool
	members      []uint32
}

// recorder passes every call through to its System and remembers every
// EdgeMap input, which frontiers the system has handed out and not had back
// (owned), every one handed back, and every one handed back that was not
// owned at that moment (foreign: a start frontier, or a second release).
type recorder struct {
	algo.System
	inputs   []edgeMapInput
	owned    map[*frontier.VertexSubset]bool
	released []*frontier.VertexSubset
	foreign  []*frontier.VertexSubset
}

func newRecorder(sys algo.System) *recorder {
	return &recorder{System: sys, owned: map[*frontier.VertexSubset]bool{}}
}

func (r *recorder) EdgeMap(p exec.Proc, g *engine.Graph, f *frontier.VertexSubset, fns algo.EdgeFuncs, output bool) (*frontier.VertexSubset, error) {
	f.Seal()
	in := edgeMapInput{g: g, f: f, count: f.Count(), bytes: f.Bytes(), dense: f.Dense()}
	f.ForEach(func(v uint32) { in.members = append(in.members, v) })
	r.inputs = append(r.inputs, in)
	out, err := r.System.EdgeMap(p, g, f, fns, output)
	r.owned[out] = true
	return out, err
}

func (r *recorder) VertexMap(p exec.Proc, f *frontier.VertexSubset, fn func(uint32) bool) *frontier.VertexSubset {
	out := r.System.VertexMap(p, f, fn)
	r.owned[out] = true
	return out
}

func (r *recorder) Release(f *frontier.VertexSubset) {
	r.released = append(r.released, f)
	if !r.owned[f] {
		r.foreign = append(r.foreign, f)
	}
	delete(r.owned, f)
	r.System.Release(f)
}

// ownershipRun is one query's observable outcome.
type ownershipRun struct {
	ints     []int64   // BFS parents, WCC labels, IncBFS depths
	floats   []float64 // PageRank ranks, BC dependencies
	end      int64     // Sim makespan of the query's Run
	memFront int64     // Mem["frontier"] after the query
	inputs   []edgeMapInput
	// released and foreign are the ownership facts: what went back, and
	// what went back without being the query's to hand back.
	released, foreign []*frontier.VertexSubset
}

// ownershipQueries are the catalogue's driven queries plus an incremental
// BFS repair; each runs on sys inside one Run of ctx.
var ownershipQueries = []struct {
	name string
	run  func(t *testing.T, sys algo.System, p exec.Proc, out, in *engine.Graph, dy *engine.Dynamic) ownershipRun
}{
	{"bfs", func(t *testing.T, sys algo.System, p exec.Proc, out, _ *engine.Graph, _ *engine.Dynamic) ownershipRun {
		parent, _, err := algo.BFSDrive(algo.DriverFor(sys), sys, p, out, 1, algo.Convergence{})
		check(t, err)
		return ownershipRun{ints: parent}
	}},
	{"pr", func(t *testing.T, sys algo.System, p exec.Proc, _, in *engine.Graph, _ *engine.Dynamic) ownershipRun {
		rank, _, err := algo.PageRankDrive(algo.DriverFor(sys), sys, p, in, 1e-4, algo.Convergence{MaxIters: 15})
		check(t, err)
		return ownershipRun{floats: rank}
	}},
	{"wcc", func(t *testing.T, sys algo.System, p exec.Proc, out, in *engine.Graph, _ *engine.Dynamic) ownershipRun {
		ids, _, err := algo.WCCDrive(algo.DriverFor(sys), sys, p, out, in, algo.Convergence{})
		check(t, err)
		r := ownershipRun{}
		for _, id := range ids {
			r.ints = append(r.ints, int64(id))
		}
		return r
	}},
	{"bc", func(t *testing.T, sys algo.System, p exec.Proc, out, in *engine.Graph, _ *engine.Dynamic) ownershipRun {
		dep, _, err := algo.BCDrive(algo.DriverFor(sys), sys, p, out, in, 1, algo.Convergence{})
		check(t, err)
		return ownershipRun{floats: dep}
	}},
	{"incbfs", func(t *testing.T, sys algo.System, p exec.Proc, _, _ *engine.Graph, dy *engine.Dynamic) ownershipRun {
		q, _, err := algo.NewIncBFS(sys, p, dy.Fwd, 1)
		check(t, err)
		r := gen.NewRNG(36)
		for i := 0; i < 60; i++ {
			check(t, dy.Add(uint32(r.Intn(int(dy.Fwd.NumVertices()))), uint32(r.Intn(int(dy.Fwd.NumVertices())))))
		}
		es, ed := dy.Seal()
		_, err = q.Repair(sys, p, dy.Fwd, es, ed)
		check(t, err)
		var run ownershipRun
		for _, d := range q.Depth {
			run.ints = append(run.ints, int64(d))
		}
		return run
	}},
}

// check reports err without stopping: the queries run on Sim procs.
func check(t *testing.T, err error) {
	if err != nil {
		t.Error(err)
	}
}

// unpooled is the blaze system with nothing carried between calls: its
// config holds no pool, so every EdgeMap and VertexMap runs on an empty
// pool of its own, and it drops every frontier handed back.
type unpooled struct{ *algo.Blaze }

func (unpooled) Release(*frontier.VertexSubset) {}

// runOwnership runs every ownership query in turn on one blaze system over
// a fresh context and graphs, pooled (algo.NewBlaze) or unpooled, and
// returns each query's outcome.
func runOwnership(t *testing.T, mk func() exec.Context, c *graph.CSR, pooled bool, queries []string) []ownershipRun {
	ctx := mk()
	out := engine.FromCSR(ctx, "own", c, 2, ssd.OptaneSSD, nil, nil)
	in := engine.FromCSR(ctx, "own.t", c.Transpose(), 2, ssd.OptaneSSD, nil, nil)
	dy := engine.NewDynamic(ctx,
		engine.FromCSR(ctx, "own.dyn", c, 2, ssd.OptaneSSD, nil, nil),
		engine.FromCSR(ctx, "own.dyn.t", c.Transpose(), 2, ssd.OptaneSSD, nil, nil),
		ssd.OptaneSSD, nil, nil, nil)
	cfg := engine.DefaultConfig(c.E)
	cfg.ScatterProcs, cfg.GatherProcs = 2, 3
	cfg.Mem = metrics.NewMemAccount()
	var blz algo.System = unpooled{&algo.Blaze{Ctx: ctx, Cfg: cfg}}
	if pooled {
		blz = algo.NewBlaze(ctx, cfg)
	}
	var runs []ownershipRun
	for _, q := range ownershipQueries {
		if !slices.Contains(queries, q.name) {
			continue
		}
		rec := newRecorder(blz)
		var r ownershipRun
		ctx.Run(q.name, func(p exec.Proc) { r = q.run(t, rec, p, out, in, dy) })
		if s, ok := ctx.(*exec.Sim); ok {
			r.end = s.End
		}
		for _, it := range cfg.Mem.Items() {
			if it.Name == "frontier" {
				r.memFront = it.Bytes
			}
		}
		r.inputs, r.released, r.foreign = rec.inputs, rec.released, rec.foreign
		runs = append(runs, r)
	}
	return runs
}

// TestPoolOwnershipInvisible: the catalogue's queries and an incremental
// repair, run one after another on one pooled blaze system — so every
// frontier the driver and the rounds hand back is rebuilt in by a later
// round, query after query — give what the same queries give on an
// unpooled one: bit-identical answers (PageRank and BC, whose gathers sum
// floats in arrival order under Real, within reassociation tolerance there)
// and, under Sim, the same frontier at every EdgeMap, the same makespan and
// the same Mem["frontier"]. The pooled run must recycle, must hand back
// only frontiers the system handed out and had not had back — never a
// query's start frontier, never one twice — and BC must never hand back a
// frontier its levels hold.
func TestPoolOwnershipInvisible(t *testing.T) {
	pr := gen.Preset{Kind: gen.KindRMAT, A: 0.57, B: 0.19, C: 0.19, Seed: 36, V: 1 << 12, E: 1 << 15}
	src, dst := pr.Generate()
	c := graph.MustBuild(pr.V, src, dst)
	backends := []struct {
		name string
		mk   func() exec.Context
	}{
		{"sim", func() exec.Context { return exec.NewSim() }},
		{"real", func() exec.Context { return exec.NewReal() }},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			_, sim := be.mk().(*exec.Sim)
			var queries []string
			for _, q := range ownershipQueries {
				// Under Real, every query but PageRank reads vertex state in
				// scatter or cond that gathers write in the same round — the
				// benign race Blaze's edge functions accept — so the race
				// detector sees PageRank only.
				if sim || !raceDetector || q.name == "pr" {
					queries = append(queries, q.name)
				}
			}
			pooled := runOwnership(t, be.mk, c, true, queries)
			plain := runOwnership(t, be.mk, c, false, queries)
			for i, name := range queries {
				got, want := pooled[i], plain[i]
				where := fmt.Sprintf("%s/%s", be.name, name)
				checkOwnership(t, where, name, got)
				if name == "bfs" && !sim {
					// Under Real the first gather to reach a vertex names
					// its parent; the levels are the answer.
					depth := algo.RefBFSDepth(c, 1)
					for _, r := range []ownershipRun{got, want} {
						if v, ok := algo.CheckParents(c, 1, r.ints, depth); !ok {
							t.Errorf("%s: vertex %d has parent %d, not one level up", where, v, r.ints[v])
						}
					}
				} else if !slices.Equal(got.ints, want.ints) {
					t.Errorf("%s: pooled answer differs from the unpooled one", where)
				}
				for v := range want.floats {
					if d := math.Abs(got.floats[v] - want.floats[v]); sim && d != 0 || d > 1e-6*math.Max(1, math.Abs(want.floats[v])) {
						t.Errorf("%s: vertex %d: pooled %g, unpooled %g", where, v, got.floats[v], want.floats[v])
						break
					}
				}
				if !sim {
					continue
				}
				if got.end != want.end || got.memFront != want.memFront {
					t.Errorf("%s: pooled Sim.End %d, Mem[frontier] %d; unpooled %d, %d",
						where, got.end, got.memFront, want.end, want.memFront)
				}
				if len(got.inputs) != len(want.inputs) {
					t.Fatalf("%s: pooled run made %d EdgeMap calls, unpooled %d", where, len(got.inputs), len(want.inputs))
				}
				for k, g := range got.inputs {
					w := want.inputs[k]
					if g.count != w.count || g.dense != w.dense || g.bytes != w.bytes || !slices.Equal(g.members, w.members) {
						t.Fatalf("%s: EdgeMap %d was handed count %d dense %v bytes %d, unpooled count %d dense %v bytes %d",
							where, k, g.count, g.dense, g.bytes, w.count, w.dense, w.bytes)
					}
				}
			}
		})
	}
}

// checkOwnership checks what a pooled query handed back: something (the
// pool is exercised), only frontiers the system had handed out and not had
// back — never a start frontier the query made itself, never one twice —
// and for BC never a level.
func checkOwnership(t *testing.T, where, name string, r ownershipRun) {
	t.Helper()
	if len(r.inputs) == 0 {
		t.Fatalf("%s: no EdgeMap call", where)
	}
	levels := map[*frontier.VertexSubset]bool{}
	if name == "bc" {
		out := r.inputs[0].g
		for _, in := range r.inputs {
			if in.g == out {
				levels[in.f] = true
			}
		}
	} else if len(r.released) == 0 {
		t.Errorf("%s: handed no frontier back: nothing was recycled", where)
	}
	if len(r.foreign) > 0 {
		t.Errorf("%s: handed back %d frontiers that were not its to hand back (a start frontier, or one twice)", where, len(r.foreign))
	}
	for _, f := range r.released {
		if levels[f] {
			t.Errorf("%s: handed back a frontier BC's levels hold", where)
		}
	}
}

// TestPoolOwnershipConcurrentTakers: three PageRank queries run at once on
// the real backend, each on its own blaze system over one shared pool (a
// session's shape), twice over, hand back only frontiers their own system
// returned and give the ranks the same queries give one after another
// unpooled, within reassociation tolerance. PageRank's edge functions share
// no vertex state between scatter and gather, so the race detector sees
// only the pool's own concurrency.
func TestPoolOwnershipConcurrentTakers(t *testing.T) {
	pr := gen.Preset{Kind: gen.KindRMAT, A: 0.57, B: 0.19, C: 0.19, Seed: 37, V: 1 << 12, E: 1 << 15}
	src, dst := pr.Generate()
	c := graph.MustBuild(pr.V, src, dst)
	eps := []float64{1e-3, 1e-4, 1e-5}
	ctx := exec.NewReal()
	g := engine.FromCSR(ctx, "own.t", c.Transpose(), 2, ssd.OptaneSSD, nil, nil)
	cfg := engine.DefaultConfig(c.E)
	cfg.ScatterProcs, cfg.GatherProcs = 2, 2

	want := make([][]float64, len(eps))
	plain := unpooled{&algo.Blaze{Ctx: ctx, Cfg: cfg}}
	ctx.Run("serial", func(p exec.Proc) {
		for i, e := range eps {
			rank, _, err := algo.PageRankDrive(algo.DriverFor(plain), plain, p, g, e, algo.Convergence{MaxIters: 15})
			check(t, err)
			want[i] = rank
		}
	})

	cfg.Pool = engine.NewPool()
	for pass := 0; pass < 2; pass++ {
		got := make([][]float64, len(eps))
		recs := make([]*recorder, len(eps))
		ctx.Run("concurrent", func(p exec.Proc) {
			for i, e := range eps {
				rec := newRecorder(algo.NewBlaze(ctx, cfg))
				recs[i] = rec
				ctx.Go(fmt.Sprintf("query%d", i), func(qp exec.Proc) {
					rank, _, err := algo.PageRankDrive(algo.DriverFor(rec), rec, qp, g, e, algo.Convergence{MaxIters: 15})
					check(t, err)
					got[i] = rank
				})
			}
		})
		for i := range eps {
			r := ownershipRun{inputs: recs[i].inputs, released: recs[i].released, foreign: recs[i].foreign}
			checkOwnership(t, fmt.Sprintf("pass %d query %d", pass, i), "pr", r)
			for v := range want[i] {
				if d := math.Abs(got[i][v] - want[i][v]); d > 1e-6*math.Max(1, math.Abs(want[i][v])) {
					t.Fatalf("pass %d query %d: vertex %d: rank %g, serial unpooled %g", pass, i, v, got[i][v], want[i][v])
				}
			}
		}
	}
}
