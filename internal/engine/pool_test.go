package engine

import (
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"blaze/internal/bin"
	"blaze/internal/exec"
	"blaze/internal/fault"
	"blaze/internal/frontier"
	"blaze/internal/graph"
	"blaze/internal/metrics"
	"blaze/internal/pipeline"
	"blaze/internal/ssd"
	"blaze/internal/trace"
)

// TestEdgeMapPooledRounds runs several EdgeMap rounds on the real backend
// with a shared Pool and checks every round computes correct in-degrees:
// pooled IO buffers and the retained bin Manager with its stagers must not
// leak state between rounds.
func TestEdgeMapPooledRounds(t *testing.T) {
	ctx := exec.NewReal()
	stats := metrics.NewIOStats(2)
	g, c := testGraph(ctx, 2, stats)
	conf := DefaultConfig(c.E)
	conf.Stats = stats
	conf.Pool = NewPool()
	conf.ScatterProcs, conf.GatherProcs = 3, 3

	want := make([]int64, c.V)
	for i := int64(0); i < c.E; i++ {
		want[graph.GetEdge(c.Adj, i)]++
	}
	for round := 0; round < 3; round++ {
		got := make([]int64, c.V)
		var st Stats
		ctx.Run("main", func(p exec.Proc) {
			_, st, _ = EdgeMap(ctx, p, g, frontier.All(c.V),
				func(s, d uint32) int64 { return 1 },
				func(d uint32, v int64) bool { got[d] += v; return false },
				func(d uint32) bool { return true },
				false, conf)
		})
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("round %d: in-degree(%d) = %d, want %d", round, v, got[v], want[v])
			}
		}
		if st.Records != c.E {
			t.Fatalf("round %d: Records = %d, want %d", round, st.Records, c.E)
		}
	}
}

// TestEdgeMapPoolMixedValueTypes interleaves EdgeMap instantiations with
// different value types over one pool: type-keyed bin state must never
// cross between them.
func TestEdgeMapPoolMixedValueTypes(t *testing.T) {
	ctx := exec.NewReal()
	stats := metrics.NewIOStats(1)
	g, c := testGraph(ctx, 1, stats)
	conf := DefaultConfig(c.E)
	conf.Stats = stats
	conf.Pool = NewPool()

	want := make([]int64, c.V)
	for i := int64(0); i < c.E; i++ {
		want[graph.GetEdge(c.Adj, i)]++
	}
	for round := 0; round < 2; round++ {
		gotI := make([]int64, c.V)
		gotF := make([]float64, c.V)
		ctx.Run("main", func(p exec.Proc) {
			EdgeMap(ctx, p, g, frontier.All(c.V),
				func(s, d uint32) int64 { return 1 },
				func(d uint32, v int64) bool { gotI[d] += v; return false },
				func(d uint32) bool { return true },
				false, conf)
			EdgeMap(ctx, p, g, frontier.All(c.V),
				func(s, d uint32) float64 { return 0.5 },
				func(d uint32, v float64) bool { gotF[d] += v; return false },
				func(d uint32) bool { return true },
				false, conf)
		})
		for v := range want {
			if gotI[v] != want[v] {
				t.Fatalf("round %d: int in-degree(%d) = %d, want %d", round, v, gotI[v], want[v])
			}
			if gotF[v] != float64(want[v])*0.5 {
				t.Fatalf("round %d: float sum(%d) = %g, want %g", round, v, gotF[v], float64(want[v])*0.5)
			}
		}
	}
}

// poolRounds sets up storage rounds on one pool the way EdgeMap runs them.
// The returned round runs one round as taker i with the given merge size
// and buffer count, and returns the buffers its sinks saw. A buffer that
// two takers hold at once fails the test.
func poolRounds(t *testing.T) (*exec.Real, *Pool, func(p exec.Proc, i, mergePages, buffers int) map[*pipeline.Buffer]bool) {
	ctx := exec.NewReal()
	g, c := testGraph(ctx, 1, nil)
	pl := NewPool()
	var mu sync.Mutex
	holder := map[*pipeline.Buffer]int{}
	round := func(p exec.Proc, i, mergePages, buffers int) map[*pipeline.Buffer]bool {
		conf := DefaultConfig(c.E)
		conf.MaxMergePages = mergePages
		conf.IOBufferBytes = int64(buffers * mergePages * ssd.PageSize)
		seen := map[*pipeline.Buffer]bool{}
		rd := pl.takeRound()
		fr, err := pipeline.Reopen(rd.fr, ctx, p, frontier.All(c.V), conf.FrontSpec("io", g))
		if fr == nil {
			t.Errorf("taker %d: Reopen on a full frontier returned no front (err %v)", i, err)
			return seen
		}
		fr.Start()
		wg := ctx.NewWaitGroup()
		wg.Add(2)
		for range 2 {
			ctx.Go("sink", func(sp exec.Proc) {
				fr.Drain(sp, func(buf *pipeline.Buffer) {
					mu.Lock()
					if h, held := holder[buf]; held && h != i {
						t.Errorf("takers %d and %d hold one buffer at once", h, i)
					}
					holder[buf], seen[buf] = i, true
					mu.Unlock()
				})
				wg.Done(sp)
			})
		}
		wg.Wait(p)
		if n, want := fr.Recover(p), fr.BufferBytes()/int64(mergePages*ssd.PageSize); int64(n) != want {
			t.Errorf("taker %d: recovered %d buffers, the round stocked %d", i, n, want)
		}
		mu.Lock()
		for buf := range seen {
			delete(holder, buf)
		}
		mu.Unlock()
		if err := fr.Close(p); err != nil {
			t.Error(err)
		}
		rd.fr = fr
		pl.putRound(rd)
		return seen
	}
	return ctx, pl, round
}

// TestPoolRecycling: the pool keeps whole closed rounds, and a round's IO
// buffers are its Front's own. A reopened Front runs on them and allocates
// none while its count fits, and drops them when the buffer length
// changes. Every buffer a round stocks cycles through its sinks: the
// frontier spans far more requests than buffers.
func TestPoolRecycling(t *testing.T) {
	ctx, pl, round := poolRounds(t)
	ctx.Run("main", func(p exec.Proc) {
		wide := round(p, 0, 4, 8)
		if len(wide) != 8 {
			t.Fatalf("the first round cycled %d buffers, want 8", len(wide))
		}
		narrow := round(p, 0, 4, 4)
		if len(narrow) != 4 {
			t.Errorf("a 4-buffer round cycled %d buffers", len(narrow))
		}
		for buf := range narrow {
			if !wide[buf] {
				t.Error("a reopened Front allocated a buffer although it owned enough")
				break
			}
		}
		if again := round(p, 0, 4, 8); !maps.Equal(again, wide) {
			t.Error("a reopened Front did not run on the buffers it owned")
		}
		if len(pl.rounds) != 1 {
			t.Errorf("one taker left %d rounds in the pool, want 1", len(pl.rounds))
		}
		for buf := range round(p, 0, 2, 8) {
			if wide[buf] || len(buf.Data) != 2*ssd.PageSize {
				t.Fatal("a Front kept buffers of the old length after MergePages changed")
			}
		}
	})
}

// TestPoolLenderDoesNotAlias: two concurrent Real takers on one pool never
// hold the same IO buffer, while their rounds overlap and alternate buffer
// counts, and the pool keeps no more rounds than there are takers.
func TestPoolLenderDoesNotAlias(t *testing.T) {
	ctx, pl, round := poolRounds(t)
	ctx.Run("main", func(p exec.Proc) {
		// The takers start together, so their rounds overlap.
		const takers, rounds = 2, 100
		start := make(chan struct{})
		wg := ctx.NewWaitGroup()
		wg.Add(takers)
		for i := 1; i <= takers; i++ {
			ctx.Go(fmt.Sprintf("taker%d", i), func(tp exec.Proc) {
				<-start
				for r := 0; r < rounds; r++ {
					round(tp, i, 4, 4+r%2*4)
				}
				wg.Done(tp)
			})
		}
		close(start)
		wg.Wait(p)
		if n := len(pl.rounds); n > takers {
			t.Errorf("the pool holds %d rounds, more than the %d concurrent takers", n, takers)
		}
	})
}

// TestPoolInvisibleInVirtualTime pins why EdgeMap no longer drops the pool
// under exec.Sim: allocation is not modeled and recycled buffers take the
// same queue operations as fresh ones, so pooled and unpooled rounds end at
// the same virtual instant with the same device traffic.
func TestPoolInvisibleInVirtualTime(t *testing.T) {
	run := func(pool *Pool) (end int64, bytes int64) {
		ctx := exec.NewSim()
		stats := metrics.NewIOStats(2)
		g, c := testGraph(ctx, 2, stats)
		conf := DefaultConfig(c.E)
		conf.Stats = stats
		conf.Pool = pool
		ctx.Run("main", func(p exec.Proc) {
			for round := 0; round < 3; round++ {
				f := frontier.All(c.V)
				if round == 1 {
					f = frontier.Single(c.V, 1) // fewer buffers than the pool holds
				}
				if _, _, err := EdgeMap(ctx, p, g, f,
					func(s, d uint32) int64 { return 1 },
					func(d uint32, v int64) bool { return true },
					func(d uint32) bool { return true },
					true, conf); err != nil {
					t.Error(err)
				}
			}
		})
		return ctx.End, stats.TotalBytes()
	}
	endFresh, bytesFresh := run(nil)
	endPooled, bytesPooled := run(NewPool())
	if endFresh != endPooled || bytesFresh != bytesPooled {
		t.Errorf("pooled run ends at %d ns / %d bytes, unpooled at %d ns / %d bytes",
			endPooled, bytesPooled, endFresh, bytesFresh)
	}
}

// TestPoolInvisibleAcrossRuns is the same claim with one Run per round, as
// blaze.Runtime.Run is used: every Run restarts the virtual clock at zero,
// so a Manager retained from the previous Run must not carry that Run's
// instants into this one — a slot still stamped with the old Put would drag
// its first taker forward to the old end time.
func TestPoolInvisibleAcrossRuns(t *testing.T) {
	run := func(pool *Pool) (ends []int64, bytes int64) {
		ctx := exec.NewSim()
		stats := metrics.NewIOStats(2)
		g, c := testGraph(ctx, 2, stats)
		conf := DefaultConfig(c.E)
		conf.Stats = stats
		conf.Pool = pool
		for round := 0; round < 3; round++ {
			f := frontier.All(c.V)
			if round > 0 {
				f = frontier.Single(c.V, uint32(round)) // much shorter than the round before
			}
			ctx.Run("main", func(p exec.Proc) {
				if _, _, err := EdgeMap(ctx, p, g, f,
					func(s, d uint32) int64 { return 1 },
					func(d uint32, v int64) bool { return true },
					func(d uint32) bool { return true },
					true, conf); err != nil {
					t.Error(err)
				}
				// Sim.End is the maximum over every Run so far; the root
				// proc's clock once the round has joined is this Run's own.
				ends = append(ends, p.Now())
			})
		}
		return ends, stats.TotalBytes()
	}
	endsFresh, bytesFresh := run(nil)
	pool := NewPool()
	endsPooled, bytesPooled := run(pool)
	if !reflect.DeepEqual(endsFresh, endsPooled) || bytesFresh != bytesPooled {
		t.Errorf("pooled Runs end at %v ns / %d bytes, unpooled at %v ns / %d bytes",
			endsPooled, bytesPooled, endsFresh, bytesFresh)
	}
	if pooledManager[int64](pool) == nil {
		t.Error("the pooled Runs retained no Manager: the test compared nothing")
	}
}

// pooledManagers lists the bin Managers pl holds for value type V, in
// free-list order: openBins takes the last.
func pooledManagers[V any](pl *Pool) []*bin.Manager[V] {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	free, _ := pl.perType[reflect.TypeFor[V]()].(*[]*binState[V])
	if free == nil {
		return nil
	}
	ms := make([]*bin.Manager[V], len(*free))
	for i, st := range *free {
		ms[i] = st.bm
	}
	return ms
}

// pooledManager is the Manager the next round of value type V would
// reopen, or nil.
func pooledManager[V any](pl *Pool) *bin.Manager[V] {
	ms := pooledManagers[V](pl)
	if len(ms) == 0 {
		return nil
	}
	return ms[len(ms)-1]
}

// pooledFrontiers returns the gather frontiers pl's rounds hold, of every
// size.
func pooledFrontiers(pl *Pool) map[*frontier.VertexSubset]bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	held := map[*frontier.VertexSubset]bool{}
	for _, rd := range pl.rounds {
		for _, f := range rd.outs {
			held[f] = true
		}
	}
	return held
}

func frontierMembers(f *frontier.VertexSubset) []uint32 {
	var vs []uint32
	f.ForEach(func(v uint32) { vs = append(vs, v) })
	return vs
}

// weightedInDegree runs one full-frontier EdgeMap over g, every edge
// carrying val, and returns the per-vertex sums.
func weightedInDegree[V int64 | float64](t *testing.T, ctx exec.Context, p exec.Proc, g *Graph, val V, conf Config) ([]V, Stats, error) {
	t.Helper()
	got := make([]V, g.CSR.V)
	_, st, err := EdgeMap(ctx, p, g, frontier.All(g.CSR.V),
		func(s, d uint32) V { return val },
		func(d uint32, v V) bool { got[d] += v; return false },
		func(d uint32) bool { return true },
		false, conf)
	return got, st, err
}

// TestRetainedManagerCleanAfterFailedRound: a round that dies half way
// drops its partial bins, so its Manager and stagers still hold records. The
// pool must not hand them to the next round: after the failure a clean round
// on the same Pool returns exactly the serial reference, on both backends,
// and every proc of the failed round has joined.
func TestRetainedManagerCleanAfterFailedRound(t *testing.T) {
	for _, be := range []struct {
		name string
		mk   func() exec.Context
	}{
		{"sim", func() exec.Context { return exec.NewSim() }},
		{"real", func() exec.Context { return exec.NewReal() }},
	} {
		t.Run(be.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx := be.mk()
			// One dead page some way into each device, single-page requests
			// and the minimum of two IO buffers per device: a reader can run
			// only two pages ahead of the scatter procs, so they have staged
			// and binned records by the time it reaches the dead page.
			bad, c := faultyGraph(ctx, 2, nil, fault.Policy{Seed: 9, PermanentRate: 0.02})
			good, _ := faultyGraph(ctx, 2, nil, fault.Policy{})
			want := make([]int64, c.V)
			for i := int64(0); i < c.E; i++ {
				want[graph.GetEdge(c.Adj, i)]++
			}
			conf := DefaultConfig(c.E)
			conf.Pool = NewPool()
			conf.MaxMergePages, conf.IOBufferBytes = 1, 1
			ctx.Run("main", func(p exec.Proc) {
				check := func(when string) {
					t.Helper()
					got, st, err := weightedInDegree[int64](t, ctx, p, good, 1, conf)
					if err != nil {
						t.Fatalf("%s: clean round failed: %v", when, err)
					}
					if st.Records != c.E {
						t.Errorf("%s: Records = %d, want %d", when, st.Records, c.E)
					}
					for v := range want {
						if got[v] != want[v] {
							t.Fatalf("%s: in-degree(%d) = %d, want %d", when, v, got[v], want[v])
						}
					}
				}
				check("before any failure")
				retained := pooledManager[int64](conf.Pool)
				if retained == nil {
					t.Fatal("a clean round left no Manager in the pool")
				}
				_, st, err := weightedInDegree[int64](t, ctx, p, bad, 1, conf)
				if err == nil {
					t.Fatal("the round over dead pages returned no error")
				}
				if st.EdgesScanned == 0 {
					t.Fatal("the failed round scanned nothing: it cannot have left records behind")
				}
				if pooledManager[int64](conf.Pool) != nil {
					t.Error("the failed round's Manager went back to the pool")
				}
				check("after the failed round")
				if m := pooledManager[int64](conf.Pool); m == nil || m == retained {
					t.Errorf("pool holds %p after recovery; the failed round used %p, which must be gone", m, retained)
				}
			})
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("goroutines leaked: %d before, %d after", before, n)
			}
		})
	}
}

// poolRound runs one weighted in-degree round of value type V on pool,
// checks it against want, and returns the Manager the pool holds afterwards,
// after checking whether it is the one (last) the pool held before.
func poolRound[V int64 | float64](t *testing.T, name string, ctx exec.Context, g *Graph, conf Config,
	val V, want []int64, last *bin.Manager[V], wantKept bool) *bin.Manager[V] {
	t.Helper()
	var m *bin.Manager[V]
	ctx.Run("main", func(p exec.Proc) {
		got, _, err := weightedInDegree(t, ctx, p, g, val, conf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for v := range want {
			if got[v] != val*V(want[v]) {
				t.Fatalf("%s: sum(%d) = %v, want %v", name, v, got[v], val*V(want[v]))
			}
		}
		m = pooledManager[V](conf.Pool)
		if kept := m == last; kept != wantKept {
			t.Errorf("%s: Manager reused = %v, want %v", name, kept, wantKept)
		}
		if m.BinCount() != conf.BinCount {
			t.Errorf("%s: pooled Manager has %d bins, round asked for %d", name, m.BinCount(), conf.BinCount)
		}
	})
	return m
}

// TestPoolDiscardsMismatchedManager alternates BinCount, value type and
// context between rounds on one Pool: a retained Manager is reused only by
// a round with the same value type, context and bin configuration; any
// mismatch builds a fresh one (which then replaces it), and every round is
// exact either way.
func TestPoolDiscardsMismatchedManager(t *testing.T) {
	ctxA, ctxB := exec.NewReal(), exec.NewReal()
	gA, c := testGraph(ctxA, 1, nil)
	gB, _ := testGraph(ctxB, 1, nil)
	want := make([]int64, c.V)
	for i := int64(0); i < c.E; i++ {
		want[graph.GetEdge(c.Adj, i)]++
	}
	base := DefaultConfig(c.E)
	base.Pool = NewPool()
	wide := base
	wide.BinCount = 2 * base.BinCount

	var lastInt *bin.Manager[int64]
	var lastFloat *bin.Manager[float64]
	for _, step := range []struct {
		name     string
		ctx      exec.Context
		g        *Graph
		conf     Config
		float    bool
		wantKept bool // the Manager of this value type is the one already pooled
	}{
		{"first int64 round", ctxA, gA, base, false, false},
		{"same again", ctxA, gA, base, false, true},
		{"first float64 round", ctxA, gA, base, true, false},
		{"int64 after float64", ctxA, gA, base, false, true},
		{"other BinCount", ctxA, gA, wide, false, false},
		{"BinCount back", ctxA, gA, base, false, false},
		{"other context", ctxB, gB, base, false, false},
		{"float64 untouched by all that", ctxA, gA, base, true, true},
		{"float64 under the other context", ctxB, gB, base, true, false},
	} {
		if step.float {
			lastFloat = poolRound(t, step.name, step.ctx, step.g, step.conf, 0.5, want, lastFloat, step.wantKept)
		} else {
			lastInt = poolRound(t, step.name, step.ctx, step.g, step.conf, int64(1), want, lastInt, step.wantKept)
		}
	}
}

// TestPoolSharedByConcurrentTakers runs K concurrent EdgeMaps under Sim,
// every one drawing from one pool, as a session's queries or a cluster's
// machines do, each scanning a frontier of its own size. The first two
// rounds start together: after the first the pool holds one Manager per
// taker, and in the second every taker reopens one of those. Then the
// takers run free, each doing some unsynchronised work of its own length
// before every round, as an algorithm does between EdgeMaps, so one
// taker's take overtakes another's put in host order. Results, returned
// frontiers and the virtual end must equal K unpooled runs throughout, and
// no frontier a round returns is ever one the pool still holds.
func TestPoolSharedByConcurrentTakers(t *testing.T) {
	const K, rounds = 4, 6
	type sums [K][rounds][]int64
	type outs [K][rounds]*frontier.VertexSubset
	run := func(pool *Pool, afterTogether func(round int)) (got, want sums, out outs, end int64) {
		ctx := exec.NewSim()
		g, c := testGraph(ctx, 2, nil)
		conf := DefaultConfig(c.E)
		conf.Pool = pool
		conf.ScatterProcs, conf.GatherProcs = 2, 2
		var fronts [K][rounds]*frontier.VertexSubset
		for i := range fronts {
			for r := range fronts[i] {
				f := frontier.NewVertexSubset(c.V)
				want[i][r] = make([]int64, c.V)
				for s := uint32(0); s < c.V; s += uint32(1 + (i+r)%K*7) {
					f.Add(s)
					b, e := c.EdgeRange(s)
					for j := b; j < e; j++ {
						want[i][r][graph.GetEdge(c.Adj, j)]++
					}
				}
				fronts[i][r] = f
			}
		}
		round := func(tp exec.Proc, i, r int) {
			got[i][r] = make([]int64, c.V)
			res, _, err := EdgeMap(ctx, tp, g, fronts[i][r],
				func(s, d uint32) int64 { return 1 },
				func(d uint32, v int64) bool { got[i][r][d] += v; return got[i][r][d] == v },
				func(d uint32) bool { return true },
				true, conf)
			if err != nil {
				t.Error(err)
			}
			if pool != nil && pooledFrontiers(pool)[res] {
				t.Errorf("taker %d, round %d: the returned frontier is one the pool holds", i, r)
			}
			out[i][r] = res
		}
		takers := func(p exec.Proc, body func(tp exec.Proc, i int)) {
			wg := ctx.NewWaitGroup()
			wg.Add(K)
			for i := 0; i < K; i++ {
				ctx.Go(fmt.Sprintf("taker%d", i), func(tp exec.Proc) {
					body(tp, i)
					wg.Done(tp)
				})
			}
			wg.Wait(p)
		}
		ctx.Run("main", func(p exec.Proc) {
			for r := 0; r < 2; r++ {
				takers(p, func(tp exec.Proc, i int) { round(tp, i, r) })
				afterTogether(r)
			}
			takers(p, func(tp exec.Proc, i int) {
				for r := 2; r < rounds; r++ {
					tp.Advance(int64(i+1) * 30_000)
					round(tp, i, r)
				}
			})
		})
		return got, want, out, ctx.End
	}

	gotFresh, want, outFresh, endFresh := run(nil, func(int) {})
	pool := NewPool()
	var first map[*bin.Manager[int64]]bool
	gotPooled, _, outPooled, endPooled := run(pool, func(round int) {
		held := map[*bin.Manager[int64]]bool{}
		for _, m := range pooledManagers[int64](pool) {
			held[m] = true
		}
		if len(held) != K {
			t.Errorf("round %d: the pool holds %d distinct Managers, want one per taker (%d)", round, len(held), K)
		}
		if round == 1 && !reflect.DeepEqual(held, first) {
			t.Error("round 1: a taker built a fresh Manager instead of reopening a retained one")
		}
		first = held
	})
	if n := len(pooledManagers[int64](pool)); n != K {
		t.Errorf("the free list holds %d Managers after the free-running rounds, want %d: never more than the concurrent takers", n, K)
	}
	if !reflect.DeepEqual(gotFresh, want) {
		t.Error("an unpooled taker's sums differ from the serial reference")
	}
	held := pooledFrontiers(pool)
	if len(held) == 0 {
		t.Error("the pool retained no gather frontier: the test compared nothing")
	}
	for i := range want {
		for r := range want[i] {
			if !reflect.DeepEqual(gotPooled[i][r], want[i][r]) {
				t.Errorf("taker %d, round %d: pooled sums differ from the serial reference", i, r)
			}
			// Every returned frontier still holds exactly the vertices its
			// round reached, after every later round reused the pool.
			var reached []uint32
			for v, n := range want[i][r] {
				if n > 0 {
					reached = append(reached, uint32(v))
				}
			}
			if held[outPooled[i][r]] {
				t.Errorf("taker %d, round %d: the pool holds a returned frontier", i, r)
			}
			if m := frontierMembers(outPooled[i][r]); !reflect.DeepEqual(m, reached) ||
				!reflect.DeepEqual(m, frontierMembers(outFresh[i][r])) {
				t.Errorf("taker %d, round %d: the pooled frontier holds %d vertices, the round reached %d", i, r, len(m), len(reached))
			}
		}
	}
	if endPooled != endFresh {
		t.Errorf("pooled takers end at %d ns, unpooled at %d ns", endPooled, endFresh)
	}
}

// TestPoolSharedByConcurrentTracedTakers: K queries run traced, pooled
// rounds at once on the real backend, each handing its returned frontier
// back, so Fronts, bin Managers and spare frontiers pass between them. A
// round must be done with everything it puts back before another taker can
// draw it: each round's Stats count its own records (the bins' counter,
// which a reopening taker zeroes), each returned frontier holds exactly the
// round's destinations, and each query's coordinator ring holds its own
// source, pipeline and merge spans back to back, one triple a round — a
// Front put back before its merge span would land that span on the next
// taker's ring and clock. Under -race it also checks that no taker touches
// what another drew.
func TestPoolSharedByConcurrentTracedTakers(t *testing.T) {
	const K, rounds = 3, 25
	ctx := exec.NewReal()
	g, c := testGraph(ctx, 1, nil)
	conf := DefaultConfig(c.E)
	conf.ScatterProcs, conf.GatherProcs = 1, 1
	conf.Pool = NewPool()
	conf.Tracer = trace.New(trace.Config{})

	var fronts [K]*frontier.VertexSubset
	var records [K]int64
	var reached [K][]uint32
	for i := range fronts {
		fronts[i] = frontier.NewVertexSubset(c.V)
		hit := make([]bool, c.V)
		for s := uint32(i); s < c.V; s += 97 {
			fronts[i].Add(s)
			b, e := c.EdgeRange(s)
			records[i] += int64(e - b)
			for j := b; j < e; j++ {
				hit[graph.GetEdge(c.Adj, j)] = true
			}
		}
		for v, h := range hit {
			if h {
				reached[i] = append(reached[i], uint32(v))
			}
		}
	}
	ctx.Run("main", func(p exec.Proc) {
		wg := ctx.NewWaitGroup()
		wg.Add(K)
		for i := 0; i < K; i++ {
			ctx.Go(fmt.Sprintf("query%d", i), func(qp exec.Proc) {
				for r := 0; r < rounds; r++ {
					out, st, err := EdgeMap(ctx, qp, g, fronts[i],
						func(s, d uint32) uint32 { return s },
						func(d uint32, v uint32) bool { return true },
						func(d uint32) bool { return true },
						true, conf)
					if err != nil {
						t.Error(err)
						break
					}
					if st.Records != records[i] {
						t.Errorf("query %d, round %d: %d records, want %d", i, r, st.Records, records[i])
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
