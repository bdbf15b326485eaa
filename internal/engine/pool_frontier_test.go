package engine

import (
	"fmt"
	"testing"

	"blaze/gen"
	"blaze/internal/alloctest"
	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/graph"
	"blaze/internal/ssd"
)

// roundBytes and roundMallocs bound what a warmed, pooled EdgeMap round
// whose caller hands back every frontier it returns may allocate in all,
// whatever the vertex count: its procs are spawned from state the pool
// keeps, so what is left is the runtime's own, a goroutine descriptor or a
// wait's sudog now and then. One bitmap over the smaller test graph's 2^16
// vertices is 8 KiB on its own, and a round spawning its procs from nothing
// makes over 40 allocations, so a round that still built its returned
// frontier, a gather proc's output frontier or its procs' closures fails.
const (
	roundBytes   = 1 << 10
	roundMallocs = 2
)

// allocRound is one round of an allocation pass: its frontier, and whether
// it propagates float64 rather than uint32.
type allocRound struct {
	f     *frontier.VertexSubset
	float bool
}

// TestPoolRoundAllocatesOnlyItsFrontier: once the pool is warm, a Real
// round whose caller hands the returned frontier back allocates almost
// nothing, and nothing that grows with the graph. Sparse rounds run at two
// vertex counts; over 2^14 vertices (a 2 KiB bitmap), dense rounds
// alternating with sparse ones, frontiers that shrink and grow, and two
// value types interleaved (each keeps a round of its own, so neither
// rebuilds the other's IO buffers). A changed config or context and a
// failed round rebuild by design, so they are no steady state to measure.
func TestPoolRoundAllocatesOnlyItsFrontier(t *testing.T) {
	for _, tc := range []struct {
		name     string
		vertices uint32
		pass     func(n uint32, sparse *frontier.VertexSubset) []allocRound
	}{
		{"65536", 1 << 16, sparsePass},
		{"262144", 1 << 18, sparsePass},
		{"dense_sparse", 1 << 14, func(n uint32, sparse *frontier.VertexSubset) []allocRound {
			return []allocRound{{f: frontier.All(n)}, {f: sparse}}
		}},
		{"shrink_grow", 1 << 14, func(n uint32, sparse *frontier.VertexSubset) []allocRound {
			return []allocRound{{f: frontier.All(n)}, {f: sparse}, {f: frontier.Single(n, 1)}, {f: strided(n, 0, 61)}}
		}},
		{"mixed_types", 1 << 14, func(n uint32, sparse *frontier.VertexSubset) []allocRound {
			return []allocRound{{f: sparse}, {f: sparse, float: true}, {f: frontier.All(n), float: true}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { poolRoundAllocs(t, tc.vertices, tc.pass) })
	}
}

func sparsePass(_ uint32, sparse *frontier.VertexSubset) []allocRound {
	return []allocRound{{f: sparse}}
}

// poolRoundAllocs warms a pool with passes of the rounds pass returns over
// an R-MAT graph of the given vertex count, about 64 rounds, then measures
// passes of about 10 rounds with alloctest.Min and holds each round to
// roundMallocs and roundBytes.
func poolRoundAllocs(t *testing.T, vertices uint32, pass func(n uint32, sparse *frontier.VertexSubset) []allocRound) {
	const attempts = 5
	ctx := exec.NewReal()
	pr := gen.Preset{Kind: gen.KindRMAT, A: 0.57, B: 0.19, C: 0.19, Seed: 5, V: vertices, E: 4 * int64(vertices)}
	src, dst := pr.Generate()
	c := graph.MustBuild(pr.V, src, dst)
	g := FromCSR(ctx, "alloc", c, 1, ssd.OptaneSSD, nil, nil)
	conf := DefaultConfig(c.E)
	conf.ScatterProcs, conf.GatherProcs = 2, 4
	conf.Pool = NewPool()

	sparse := frontier.NewVertexSubset(c.V)
	for v := uint32(0); v < c.V && sparse.Count() < 64; v += 997 {
		if c.Degree(v) > 0 {
			sparse.Add(v)
		}
	}
	rounds := pass(c.V, sparse)
	warm, passes := max(1, 64/len(rounds)), max(1, 10/len(rounds))
	run := func(p exec.Proc) {
		for _, r := range rounds {
			var out *frontier.VertexSubset
			var err error
			if r.float {
				out, _, err = EdgeMap(ctx, p, g, r.f,
					func(s, d uint32) float64 { return 1 },
					func(d uint32, v float64) bool { return true },
					func(d uint32) bool { return true },
					true, conf)
			} else {
				out, _, err = EdgeMap(ctx, p, g, r.f,
					func(s, d uint32) uint32 { return s },
					func(d uint32, v uint32) bool { return true },
					func(d uint32) bool { return true },
					true, conf)
			}
			if err != nil {
				t.Fatal(err)
			}
			conf.Pool.Release(out)
		}
	}
	var mallocs, bytes uint64
	ctx.Run("main", func(p exec.Proc) {
		for range warm {
			run(p)
		}
		mallocs, bytes = alloctest.Min(attempts, func() {
			for range passes {
				run(p)
			}
		})
	})
	n := uint64(passes * len(rounds))
	t.Logf("per round %d bytes and %.2f allocations in all (fewest of %d attempts)",
		bytes/n, float64(mallocs)/float64(n), attempts)
	if bytes/n > roundBytes {
		t.Errorf("a pooled round allocates %d bytes, want at most %d", bytes/n, roundBytes)
	}
	if mallocs > roundMallocs*n {
		t.Errorf("a pooled round makes %.2f allocations, want at most %d", float64(mallocs)/float64(n), roundMallocs)
	}
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
