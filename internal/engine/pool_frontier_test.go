package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"blaze/gen"
	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/graph"
	"blaze/internal/metrics"
	"blaze/internal/ssd"
)

// roundBytes and roundMallocs bound what a warmed, pooled EdgeMap round
// whose caller hands back every frontier it returns may allocate in all,
// whatever the vertex count: its procs are spawned from state the pool
// keeps, so what is left is the runtime's own, a goroutine descriptor or a
// wait's sudog now and then (20 runs on amd64 stayed under 0.7 allocations
// and 180 bytes a round). One bitmap over the smaller test graph's 2^16
// vertices is 8 KiB on its own, and a round spawning its procs from nothing
// makes over 40 allocations, so a round that still built its returned
// frontier, a gather proc's output frontier or its procs' closures fails.
const (
	roundBytes   = 1 << 10
	roundMallocs = 2
)

// TestPoolRoundAllocatesOnlyItsFrontier: once the pool is warm, a Real
// round over a sparse frontier whose caller hands the returned frontier
// back allocates almost nothing, and nothing that grows with the graph,
// measured by TotalAlloc and Mallocs over many rounds at two vertex counts.
// The warm-up is long because the runtime's per-P free lists of goroutine
// descriptors and sudogs fill over the first hundred-odd procs and waits.
func TestPoolRoundAllocatesOnlyItsFrontier(t *testing.T) {
	for _, v := range []uint32{1 << 16, 1 << 18} {
		t.Run(fmt.Sprint(v), func(t *testing.T) { poolRoundAllocs(t, v) })
	}
}

func poolRoundAllocs(t *testing.T, vertices uint32) {
	const warm, rounds = 128, 40
	ctx := exec.NewReal()
	pr := gen.Preset{Kind: gen.KindRMAT, A: 0.57, B: 0.19, C: 0.19, Seed: 5, V: vertices, E: 4 * int64(vertices)}
	src, dst := pr.Generate()
	c := graph.MustBuild(pr.V, src, dst)
	g := FromCSR(ctx, "alloc", c, 1, ssd.OptaneSSD, nil, nil)
	conf := DefaultConfig(c.E)
	conf.ScatterProcs, conf.GatherProcs = 2, 4
	conf.Pool = NewPool()

	f := frontier.NewVertexSubset(c.V)
	for v := uint32(0); v < c.V && f.Count() < 64; v += 997 {
		if c.Degree(v) > 0 {
			f.Add(v)
		}
	}
	round := func(p exec.Proc) *frontier.VertexSubset {
		out, _, err := EdgeMap(ctx, p, g, f,
			func(s, d uint32) uint32 { return s },
			func(d uint32, v uint32) bool { return true },
			func(d uint32) bool { return true },
			true, conf)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	var total, mallocs uint64
	var count int64
	var dense bool
	ctx.Run("main", func(p exec.Proc) {
		for i := 0; i < warm; i++ {
			conf.Pool.Release(round(p))
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			out := round(p)
			count, dense = out.Count(), out.Dense()
			conf.Pool.Release(out)
		}
		runtime.ReadMemStats(&after)
		total = after.TotalAlloc - before.TotalAlloc
		mallocs = after.Mallocs - before.Mallocs
	})
	if dense || count == 0 {
		t.Fatalf("the round returned %d of %d vertices: not a sparse frontier", count, c.V)
	}
	perRound, mallocsPerRound := int64(total)/rounds, float64(mallocs)/rounds
	t.Logf("%d vertices: per round %d bytes and %.2f allocations in all, a %d-vertex frontier returned and handed back",
		c.V, perRound, mallocsPerRound, count)
	if perRound > roundBytes {
		t.Errorf("%d vertices: a pooled round allocates %d bytes, want at most %d", c.V, perRound, roundBytes)
	}
	if mallocsPerRound > roundMallocs {
		t.Errorf("%d vertices: a pooled round makes %.2f allocations, want at most %d", c.V, mallocsPerRound, roundMallocs)
	}
}

// frontierRound is what a caller can observe of one EdgeMap round: the
// returned frontier, and under Sim the virtual clock and the frontier
// memory the round reported.
type frontierRound struct {
	Count   int64
	Dense   bool
	Bytes   int64
	Members []uint32
	End     int64
	Mem     int64
}

// TestPoolFrontiersInvisible: on one pool, dense PageRank-style rounds
// alternate with sparse BFS rounds, both propagating float64 so they draw
// one pooled round, and the retained gather frontiers go from nearly full
// bitmaps to a few members and back. On both backends
// every returned frontier equals the unpooled run's — Count, Dense, ForEach
// order, Bytes — and under Sim so do the virtual clock and Mem["frontier"]
// after every round.
func TestPoolFrontiersInvisible(t *testing.T) {
	run := func(ctx exec.Context, pool *Pool) []frontierRound {
		g, c := testGraph(ctx, 2, nil)
		conf := DefaultConfig(c.E)
		conf.Pool = pool
		conf.ScatterProcs, conf.GatherProcs = 2, 3
		conf.Mem = metrics.NewMemAccount()
		_, sim := ctx.(*exec.Sim)
		var rounds []frontierRound
		record := func(p exec.Proc, f *frontier.VertexSubset) {
			r := frontierRound{Count: f.Count(), Dense: f.Dense(), Bytes: f.Bytes(), Members: frontierMembers(f)}
			if sim {
				r.End = p.Now()
				for _, it := range conf.Mem.Items() {
					if it.Name == "frontier" {
						r.Mem = it.Bytes
					}
				}
			}
			rounds = append(rounds, r)
		}
		rank := make([]float64, c.V)
		ctx.Run("main", func(p exec.Proc) {
			// The gathers alone touch visited (a destination's records all
			// reach one gather proc), so cond passes every edge.
			visited := make([]bool, c.V)
			bfs := frontier.Single(c.V, 0)
			visited[0] = true
			for r := 0; r < 6; r++ {
				dense, _, err := EdgeMap(ctx, p, g, frontier.All(c.V),
					func(s, d uint32) float64 { return 1 / float64(c.Degree(s)) },
					func(d uint32, v float64) bool { rank[d] += v; return true },
					func(d uint32) bool { return true },
					true, conf)
				if err != nil {
					t.Fatal(err)
				}
				record(p, dense)
				next, _, err := EdgeMap(ctx, p, g, bfs,
					func(s, d uint32) float64 { return float64(s) },
					func(d uint32, v float64) bool {
						if visited[d] {
							return false
						}
						visited[d] = true
						return true
					},
					func(d uint32) bool { return true },
					true, conf)
				if err != nil {
					t.Fatal(err)
				}
				record(p, next)
				if bfs = next; bfs.Empty() {
					bfs = frontier.Single(c.V, uint32(r+1))
				}
			}
		})
		return rounds
	}
	for _, be := range []struct {
		name string
		mk   func() exec.Context
	}{
		{"sim", func() exec.Context { return exec.NewSim() }},
		{"real", func() exec.Context { return exec.NewReal() }},
	} {
		t.Run(be.name, func(t *testing.T) {
			fresh := run(be.mk(), nil)
			pool := NewPool()
			pooled := run(be.mk(), pool)
			var sparse, dense int
			for i, r := range fresh {
				if r.Dense {
					dense++
				} else if r.Count > 0 {
					sparse++
				}
				if !reflect.DeepEqual(pooled[i], r) {
					t.Errorf("round %d: pooled %+v, unpooled %+v", i, summary(pooled[i]), summary(r))
				}
			}
			if sparse == 0 || dense == 0 {
				t.Errorf("%d sparse and %d dense rounds: the test must return both", sparse, dense)
			}
			if len(pooledFrontiers[float64](pool)) == 0 {
				t.Error("the pool retained no gather frontier: the test compared nothing")
			}
		})
	}
}

// summary drops the member list from an error message.
func summary(r frontierRound) frontierRound {
	r.Members = nil
	return r
}

// TestProcNamesMatchFormatted: tabled proc names are the formatted ones,
// inside the table and past it.
func TestProcNamesMatchFormatted(t *testing.T) {
	for _, i := range []int{0, 9, len(gatherNames) - 1, len(gatherNames), 1000} {
		if got, want := procName(&gatherNames, "gather", i), fmt.Sprintf("gather%d", i); got != want {
			t.Errorf("procName(%d) = %q, want %q", i, got, want)
		}
	}
}
