package engine

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"blaze/internal/exec"
	"blaze/internal/fault"
	"blaze/internal/frontier"
	"blaze/internal/graph"
	"blaze/internal/metrics"
	"blaze/internal/ssd"
	"blaze/internal/trace"
)

// The pool's contract is checked only through what a caller can use and
// see — EdgeMap, VertexMap, Release, Config.Mem and the results:
//
//   - invisible: a run on one shared pool observes what the same run with
//     a fresh pool for every call observes (checkInvisible, over the
//     scenarios in this file);
//   - cheap: a warm round allocates almost nothing
//     (TestPoolRoundAllocatesOnlyItsFrontier);
//   - no sharing: concurrent takers never touch one another's state
//     (TestPoolSharedByConcurrentTracedTakers, and the concurrent-takers
//     scenario, under -race);
//   - no leftover procs: every proc a round spawns has exited once it
//     returns (TestPoolNoProcOutlivesItsRound);
//   - bounded: the pool keeps no more rounds than there are concurrent
//     takers (TestPoolLenderDoesNotAlias, the one check that reads the
//     pool's free list).

var backends = []struct {
	name string
	mk   func() exec.Context
}{
	{"sim", func() exec.Context { return exec.NewSim() }},
	{"real", func() exec.Context { return exec.NewReal() }},
}

// observed is what a caller can see of one round: whether it failed, the
// per-vertex sums its gathers left, the frontier it returned, what the
// round reported to Config.Mem, and under Sim the clock once it returned.
type observed struct {
	Failed  bool
	Sums    []float64
	Members []uint32
	Count   int64
	Dense   bool
	Bytes   int64
	Mem     []metrics.MemItem
	End     int64
}

// poolRun is one run of a scenario on one backend. Every call draws from
// pool, or, with pool nil, from a fresh pool of its own (a Config without
// a Pool). Each taker records its rounds in a lane of its own.
type poolRun struct {
	t     *testing.T
	mk    func() exec.Context
	pool  *Pool
	lanes []*lane
}

// lane is one taker's config and what its rounds observed.
type lane struct {
	conf Config
	obs  []observed
}

// newLane returns a lane that runs with conf, r's pool and a Mem account
// of its own.
func (r *poolRun) newLane(conf Config) *lane {
	conf.Pool, conf.Mem = r.pool, metrics.NewMemAccount()
	l := &lane{conf: conf}
	r.lanes = append(r.lanes, l)
	return l
}

// release hands f back, as an owner does with a frontier it will not read
// again; a run with a fresh pool per call drops it.
func (l *lane) release(f *frontier.VertexSubset) {
	if l.conf.Pool != nil {
		l.conf.Pool.Release(f)
	}
}

// record appends what a round showed: its failure, its sums (nil on
// failure) and the frontier it returned (nil on failure).
func (l *lane) record(ctx exec.Context, p exec.Proc, failed bool, sums []float64, out *frontier.VertexSubset) {
	o := observed{Failed: failed, Sums: sums, Mem: l.conf.Mem.Items()}
	if _, sim := ctx.(*exec.Sim); sim {
		o.End = p.Now()
	}
	if out != nil {
		o.Members, o.Count, o.Dense, o.Bytes = frontierMembers(out), out.Count(), out.Dense(), out.Bytes()
	}
	l.obs = append(l.obs, o)
}

// edgeRound runs one EdgeMap of value type V over f on g for lane l and
// records it: edge s→d carries val(s), which gather adds into d's sum for
// the round, and d joins the returned frontier on its first record unless
// seen (when non-nil) already marks it. It returns that frontier, nil on
// failure.
func edgeRound[V int64 | float64](l *lane, ctx exec.Context, p exec.Proc, g *Graph,
	f *frontier.VertexSubset, val func(s uint32) V, seen []bool) *frontier.VertexSubset {
	sums := make([]V, g.CSR.V)
	out, _, err := EdgeMap(ctx, p, g, f,
		func(s, d uint32) V { return val(s) },
		func(d uint32, v V) bool {
			sums[d] += v
			first := sums[d] == v && (seen == nil || !seen[d])
			if first && seen != nil {
				seen[d] = true
			}
			return first
		},
		func(d uint32) bool { return true },
		true, l.conf)
	var fs []float64
	if err == nil {
		fs = make([]float64, len(sums))
		for v, s := range sums {
			fs[v] = float64(s)
		}
	}
	l.record(ctx, p, err != nil, fs, out)
	return out
}

func one(uint32) int64    { return 1 }
func half(uint32) float64 { return 0.5 }

// strided returns the frontier of every step-th vertex of n from first.
func strided(n, first, step uint32) *frontier.VertexSubset {
	f := frontier.NewVertexSubset(n)
	for v := first; v < n; v += step {
		f.Add(v)
	}
	return f
}

// shrinkGrow returns frontiers over n vertices that span all pages, one,
// some, all again and few: fewer pages and IO buffers than a round before
// them, then more.
func shrinkGrow(n uint32) []*frontier.VertexSubset {
	return []*frontier.VertexSubset{frontier.All(n), frontier.Single(n, 1), strided(n, 0, 301),
		frontier.All(n), strided(n, 3, 1999), frontier.Single(n, 2)}
}

func frontierMembers(f *frontier.VertexSubset) []uint32 {
	var vs []uint32
	f.ForEach(func(v uint32) { vs = append(vs, v) })
	return vs
}

// checkInvisible runs scenario on Sim and on Real, once on one shared pool
// and once with a fresh pool for every call, and requires the two runs to
// observe the same rounds: the same failures, sums (under Real within
// float reassociation, its gathers adding in arrival order), returned
// frontiers and Mem items, and under Sim the same clock after every round.
// Every proc the runs spawned must have exited once they return.
func checkInvisible(t *testing.T, scenario func(r *poolRun)) {
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			fresh, shared := &poolRun{t: t, mk: be.mk}, &poolRun{t: t, mk: be.mk, pool: NewPool()}
			base := runtime.NumGoroutine()
			scenario(fresh)
			scenario(shared)
			settleGoroutines(t, base, "the scenario")
			if len(fresh.lanes) != len(shared.lanes) || len(fresh.lanes) == 0 {
				t.Fatalf("%d lanes with fresh pools, %d on a shared one", len(fresh.lanes), len(shared.lanes))
			}
			tol := 0.0
			if be.name == "real" {
				tol = 1e-9
			}
			for i, fl := range fresh.lanes {
				sl := shared.lanes[i]
				if len(fl.obs) != len(sl.obs) || len(fl.obs) == 0 {
					t.Fatalf("lane %d: %d rounds with fresh pools, %d on a shared one", i, len(fl.obs), len(sl.obs))
				}
				for k, want := range fl.obs {
					got := sl.obs[k]
					if !sameSums(got.Sums, want.Sums, tol) {
						t.Errorf("lane %d, round %d: the shared pool's sums differ from the fresh pools'", i, k)
					}
					got.Sums, want.Sums = nil, nil
					if !reflect.DeepEqual(got, want) {
						got.Members, want.Members = nil, nil
						t.Errorf("lane %d, round %d: shared pool %+v, fresh pools %+v (members elided)", i, k, got, want)
					}
				}
			}
		})
	}
}

// sameSums reports whether a and b are equal within relative tolerance tol.
func sameSums(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if math.Abs(a[v]-b[v]) > tol*math.Max(1, math.Abs(b[v])) {
			return false
		}
	}
	return true
}

// TestPoolInvisibleInVirtualTime: frontier sizes that shrink and grow,
// in one Run.
func TestPoolInvisibleInVirtualTime(t *testing.T) {
	checkInvisible(t, func(r *poolRun) {
		ctx := r.mk()
		g, c := testGraph(ctx, 2, nil)
		l := r.newLane(DefaultConfig(c.E))
		ctx.Run("main", func(p exec.Proc) {
			for _, f := range shrinkGrow(c.V) {
				l.release(edgeRound(l, ctx, p, g, f, one, nil))
			}
		})
	})
}

// TestPoolInvisibleAcrossRuns: the same rounds with one Run each, as
// blaze.Runtime.Run is used. Every Run restarts the virtual clock at zero,
// so nothing a round keeps may carry the previous Run's instants into
// this one.
func TestPoolInvisibleAcrossRuns(t *testing.T) {
	checkInvisible(t, func(r *poolRun) {
		ctx := r.mk()
		g, c := testGraph(ctx, 2, nil)
		l := r.newLane(DefaultConfig(c.E))
		for _, f := range shrinkGrow(c.V) {
			ctx.Run("main", func(p exec.Proc) { l.release(edgeRound(l, ctx, p, g, f, one, nil)) })
		}
	})
}

// TestPoolFrontiersInvisible: dense PageRank-style rounds alternate with
// the sparse rounds of a traversal and a vertex map, all float64, so the
// gather frontiers go from nearly full bitmaps to a few members and back,
// and every returned frontier is handed back once read.
func TestPoolFrontiersInvisible(t *testing.T) {
	checkInvisible(t, func(r *poolRun) {
		ctx := r.mk()
		g, c := testGraph(ctx, 2, nil)
		conf := DefaultConfig(c.E)
		conf.ScatterProcs, conf.GatherProcs = 2, 3
		l := r.newLane(conf)
		rank := func(s uint32) float64 { return 1 / float64(c.Degree(s)) }
		label := func(s uint32) float64 { return float64(s) + 1 }
		ctx.Run("main", func(p exec.Proc) {
			seen := make([]bool, c.V)
			bfs := frontier.Single(c.V, 0)
			for i := range 6 {
				dense := edgeRound(l, ctx, p, g, frontier.All(c.V), rank, nil)
				odd := VertexMap(p, dense, func(v uint32) bool { return v%2 == 1 }, l.conf)
				l.record(ctx, p, false, nil, odd)
				l.release(dense)
				l.release(odd)
				next := edgeRound(l, ctx, p, g, bfs, label, seen)
				l.release(bfs)
				if bfs = next; bfs.Empty() {
					l.release(bfs)
					bfs = frontier.Single(c.V, uint32(i+1))
				}
			}
		})
	})
}

// TestEdgeMapPoolMixedValueTypes: int64 and float64 rounds interleaved on
// one pool.
func TestEdgeMapPoolMixedValueTypes(t *testing.T) {
	checkInvisible(t, func(r *poolRun) {
		ctx := r.mk()
		g, c := testGraph(ctx, 1, nil)
		l := r.newLane(DefaultConfig(c.E))
		ctx.Run("main", func(p exec.Proc) {
			for range 3 {
				l.release(edgeRound(l, ctx, p, g, frontier.All(c.V), one, nil))
				l.release(edgeRound(l, ctx, p, g, strided(c.V, 1, 5), half, nil))
			}
		})
	})
}

// TestPoolDiscardsMismatchedManager: BinCount, MaxMergePages, the context
// and the value type change from round to round on one pool, and change
// back. The float64 rounds start with single-page requests, so their
// second round reads four-page runs where a round before held one-page
// buffers.
func TestPoolDiscardsMismatchedManager(t *testing.T) {
	checkInvisible(t, func(r *poolRun) {
		ctxA, ctxB := r.mk(), r.mk()
		gA, c := testGraph(ctxA, 1, nil)
		gB, _ := testGraph(ctxB, 1, nil)
		l := r.newLane(DefaultConfig(c.E))
		base, wide, narrow := l.conf, l.conf, l.conf
		wide.BinCount *= 2
		narrow.MaxMergePages = 1
		for _, step := range []struct {
			ctx   exec.Context
			g     *Graph
			conf  Config
			float bool
		}{
			{ctxA, gA, base, false},
			{ctxA, gA, wide, false},
			{ctxA, gA, narrow, true},
			{ctxA, gA, base, true},
			{ctxA, gA, narrow, false},
			{ctxA, gA, base, false},
			{ctxB, gB, base, false},
			{ctxB, gB, wide, true},
			{ctxA, gA, base, true},
			{ctxA, gA, base, false},
		} {
			l.conf = step.conf
			step.ctx.Run("main", func(p exec.Proc) {
				if step.float {
					l.release(edgeRound(l, step.ctx, p, step.g, frontier.All(c.V), half, nil))
				} else {
					l.release(edgeRound(l, step.ctx, p, step.g, frontier.All(c.V), one, nil))
				}
			})
		}
	})
}

// TestRetainedManagerCleanAfterFailedRound: rounds that die half way —
// their partial bins dropped, records left in buffers and stagers — come
// between clean ones. With single-page requests and two IO buffers per
// device, a reader runs only two pages ahead of the scatter procs, so they
// have binned records by the time it reaches a dead page.
func TestRetainedManagerCleanAfterFailedRound(t *testing.T) {
	checkInvisible(t, func(r *poolRun) {
		ctx := r.mk()
		bad, c := faultyGraph(ctx, 2, nil, fault.Policy{Seed: 9, PermanentRate: 0.02})
		good, _ := faultyGraph(ctx, 2, nil, fault.Policy{})
		conf := DefaultConfig(c.E)
		conf.MaxMergePages, conf.IOBufferBytes = 1, 1
		l := r.newLane(conf)
		ctx.Run("main", func(p exec.Proc) {
			for _, g := range []*Graph{good, bad, good, bad, bad, good} {
				l.release(edgeRound(l, ctx, p, g, frontier.All(c.V), one, nil))
			}
		})
		for k, o := range l.obs {
			if o.Failed != (k == 1 || k == 3 || k == 4) {
				r.t.Fatalf("round %d: failed %v: only the rounds over dead pages fail", k, o.Failed)
			}
		}
	})
}

// TestPoolSharedByConcurrentTakers: K takers run EdgeMaps at once on one
// pool, as a session's queries or a cluster's machines do, each over
// frontiers of its own. The first two rounds start together; then each
// taker does some work of its own length before every round, as an
// algorithm does between EdgeMaps, and takes its next round in clock
// order, so one taker's take overtakes another's put.
func TestPoolSharedByConcurrentTakers(t *testing.T) {
	const K, rounds = 4, 6
	checkInvisible(t, func(r *poolRun) {
		ctx := r.mk()
		g, c := testGraph(ctx, 2, nil)
		conf := DefaultConfig(c.E)
		conf.ScatterProcs, conf.GatherProcs = 2, 2
		for range K {
			r.newLane(conf)
		}
		ctx.Run("main", func(p exec.Proc) {
			wg := ctx.NewWaitGroup()
			wg.Add(K)
			for i, l := range r.lanes {
				ctx.Go(fmt.Sprintf("taker%d", i), func(tp exec.Proc) {
					for k := range rounds {
						if k >= 2 {
							tp.Advance(int64(i+1) * 30_000)
							tp.Sync()
						}
						l.release(edgeRound(l, ctx, tp, g, strided(c.V, 0, uint32(1+(i+k)%K*7)), one, nil))
					}
					wg.Done(tp)
				})
			}
			wg.Wait(p)
		})
	})
}

// TestPoolLenderDoesNotAlias: two concurrent Real takers on one pool, whose
// rounds overlap and alternate their IO buffer counts, each get exactly the
// sums and frontier their own round gives — a buffer, round or spare
// frontier lent to both at once would mix their records — and the pool
// keeps no more rounds than there are takers.
func TestPoolLenderDoesNotAlias(t *testing.T) {
	const takers, rounds = 2, 40
	ctx := exec.NewReal()
	g, c := testGraph(ctx, 1, nil)
	conf := DefaultConfig(c.E)
	conf.ScatterProcs, conf.GatherProcs = 2, 2
	conf.Pool = NewPool()

	want := make([]int64, c.V)
	for s := uint32(0); s < c.V; s++ {
		b, e := c.EdgeRange(s)
		for j := b; j < e; j++ {
			want[graph.GetEdge(c.Adj, j)]++
		}
	}
	var reached []uint32
	for v, n := range want {
		if n > 0 {
			reached = append(reached, uint32(v))
		}
	}
	ctx.Run("main", func(p exec.Proc) {
		// The takers start together, so their rounds overlap.
		start := make(chan struct{})
		wg := ctx.NewWaitGroup()
		wg.Add(takers)
		for i := 1; i <= takers; i++ {
			ctx.Go(fmt.Sprintf("taker%d", i), func(tp exec.Proc) {
				<-start
				tconf := conf
				for r := 0; r < rounds; r++ {
					tconf.IOBufferBytes = int64((4 + r%2*4) * tconf.MaxMergePages * ssd.PageSize)
					got := make([]int64, c.V)
					out, _, err := EdgeMap(ctx, tp, g, frontier.All(c.V),
						func(s, d uint32) int64 { return 1 },
						func(d uint32, v int64) bool { got[d] += v; return got[d] == v },
						func(d uint32) bool { return true },
						true, tconf)
					if err != nil {
						t.Error(err)
						break
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("taker %d, round %d: the sums differ from the in-degrees", i, r)
					}
					if m := frontierMembers(out); !reflect.DeepEqual(m, reached) {
						t.Errorf("taker %d, round %d: returned %d vertices, want %d", i, r, len(m), len(reached))
					}
					conf.Pool.Release(out)
				}
				wg.Done(tp)
			})
		}
		close(start)
		wg.Wait(p)
	})
	conf.Pool.mu.Lock()
	n := len(*freeRounds[int64](conf.Pool))
	conf.Pool.mu.Unlock()
	if n > takers {
		t.Errorf("the pool holds %d rounds, more than the %d concurrent takers", n, takers)
	}
}

// TestPoolSharedByConcurrentTracedTakers: K queries run traced rounds at
// once on one pool on the real backend, their IO buffer budget switching
// between rounds, each handing its returned frontier back, so rounds,
// buffers and spare frontiers pass between them. A taker must be done with
// everything it puts back before another can draw it: each round's sums
// are exactly the in-degrees its frontier gives, each returned frontier
// holds exactly the round's destinations, and each query's coordinator
// ring holds its own source, pipeline and merge spans back to back, one
// triple a round — a round put back before its merge span would land that
// span on the next taker's ring and clock. Under -race it also checks that
// no taker touches what another drew.
func TestPoolSharedByConcurrentTracedTakers(t *testing.T) {
	const K, rounds = 3, 25
	ctx := exec.NewReal()
	g, c := testGraph(ctx, 1, nil)
	conf := DefaultConfig(c.E)
	conf.ScatterProcs, conf.GatherProcs = 1, 1
	conf.Pool = NewPool()
	conf.Tracer = trace.New(trace.Config{})

	var fronts [K]*frontier.VertexSubset
	var want [K][]int64
	var reached [K][]uint32
	for i := range fronts {
		fronts[i] = strided(c.V, uint32(i), 97)
		want[i] = make([]int64, c.V)
		fronts[i].ForEach(func(s uint32) {
			b, e := c.EdgeRange(s)
			for j := b; j < e; j++ {
				want[i][graph.GetEdge(c.Adj, j)]++
			}
		})
		for v, n := range want[i] {
			if n > 0 {
				reached[i] = append(reached[i], uint32(v))
			}
		}
	}
	ctx.Run("main", func(p exec.Proc) {
		wg := ctx.NewWaitGroup()
		wg.Add(K)
		for i := 0; i < K; i++ {
			ctx.Go(fmt.Sprintf("query%d", i), func(qp exec.Proc) {
				qconf := conf
				for r := 0; r < rounds; r++ {
					qconf.IOBufferBytes = int64((4 + (i+r)%2*4) * qconf.MaxMergePages * ssd.PageSize)
					got := make([]int64, c.V)
					out, _, err := EdgeMap(ctx, qp, g, fronts[i],
						func(s, d uint32) int64 { return 1 },
						func(d uint32, v int64) bool { got[d] += v; return got[d] == v },
						func(d uint32) bool { return true },
						true, qconf)
					if err != nil {
						t.Error(err)
						break
					}
					if !reflect.DeepEqual(got, want[i]) {
						t.Errorf("query %d, round %d: the sums differ from the in-degrees", i, r)
					}
					if m := frontierMembers(out); !reflect.DeepEqual(m, reached[i]) {
						t.Errorf("query %d, round %d: returned %d vertices, want %d", i, r, len(m), len(reached[i]))
					}
					conf.Pool.Release(out)
				}
				wg.Done(qp)
			})
		}
		wg.Wait(p)
	})

	coords := 0
	for _, pt := range conf.Tracer.Collect().Procs {
		if pt.Stage != trace.StageCoord {
			continue
		}
		coords++
		var spans []trace.Event
		for _, e := range pt.Events {
			if e.Op == trace.OpPhase {
				spans = append(spans, e)
			}
		}
		if len(spans) != 3*rounds {
			t.Errorf("%s: %d phase spans, want 3 a round (%d)", pt.Name, len(spans), 3*rounds)
			continue
		}
		for k, e := range spans {
			if want := []trace.Phase{trace.PhaseSource, trace.PhasePipeline, trace.PhaseMerge}[k%3]; trace.Phase(e.Arg) != want {
				t.Errorf("%s: span %d is a %v span, want %v", pt.Name, k, trace.Phase(e.Arg), want)
				break
			}
			if k%3 > 0 && e.Start != spans[k-1].End() {
				t.Errorf("%s: span %d starts at %d, its round's previous span ends at %d", pt.Name, k, e.Start, spans[k-1].End())
				break
			}
		}
	}
	if coords != K {
		t.Errorf("%d coordinator rings, want one a query (%d)", coords, K)
	}
}
