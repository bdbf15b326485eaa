package algo_test

import (
	"testing"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/graph"
	"blaze/internal/registry"
	"blaze/internal/ssd"
)

// dynamicEngines are the registry entries whose EdgeMap iterates delta
// segments (registry.DynamicCapable).
var dynamicEngines = []string{"blaze"}

// dynSetup builds a dynamic forward/transpose graph pair plus the named
// engine over one sim context.
func dynSetup(t *testing.T, name string, c *graph.CSR) (exec.Context, algo.System, *engine.Dynamic) {
	t.Helper()
	return dynSetupOn(t, exec.NewSim(), name, c)
}

// dynSetupOn is dynSetup over a context of the caller's choosing.
func dynSetupOn(t *testing.T, ctx exec.Context, name string, c *graph.CSR) (exec.Context, algo.System, *engine.Dynamic) {
	t.Helper()
	fwd := engine.FromCSR(ctx, "dyn", c, 1, ssd.OptaneSSD, nil, nil)
	tr := engine.FromCSR(ctx, "dyn.t", c.Transpose(), 1, ssd.OptaneSSD, nil, nil)
	sys, err := registry.New(name, ctx, registry.Options{Edges: c.E, Workers: 4, NumDev: 1, Profile: ssd.OptaneSSD})
	if err != nil {
		t.Fatal(err)
	}
	return ctx, sys, engine.NewDynamic(ctx, fwd, tr, ssd.OptaneSSD, nil, nil, nil)
}

// insertBatch adds a deterministic pseudo-random batch and seals it,
// returning the sealed edge list and appending it to the running mirror.
func insertBatch(t *testing.T, dy *engine.Dynamic, r *gen.RNG, n uint32, count int,
	allSrc, allDst *[]uint32) (es, ed []uint32) {
	t.Helper()
	for i := 0; i < count; i++ {
		s := uint32(r.Intn(int(n)))
		d := uint32(r.Intn(int(n)))
		if err := dy.Add(s, d); err != nil {
			t.Fatal(err)
		}
	}
	es, ed = dy.Seal()
	if len(es) != count {
		t.Fatalf("sealed %d edges, want %d", len(es), count)
	}
	*allSrc = append(*allSrc, es...)
	*allDst = append(*allDst, ed...)
	return es, ed
}

// Incremental BFS repair must be bit-identical to a full recompute over
// the overlay after every sealed batch, and both must match the serial
// reference on the flattened edge list.
func TestIncrementalBFSBitIdentical(t *testing.T) {
	for _, name := range dynamicEngines {
		c := randomCSR(11, 600)
		ctx, sys, dy := dynSetup(t, name, c)
		r := gen.NewRNG(99)
		allSrc := append([]uint32(nil), edgeList(c)...)
		allDst := append([]uint32(nil), edgeListDst(c)...)

		var q *algo.IncBFS
		ctx.Run("main", func(p exec.Proc) {
			var err error
			q, _, err = algo.NewIncBFS(sys, p, dy.Fwd, 0)
			if err != nil {
				t.Fatal(err)
			}
		})
		for batch := 0; batch < 3; batch++ {
			es, ed := insertBatch(t, dy, r, c.V, 40, &allSrc, &allDst)
			var full []int32
			ctx.Run("main", func(p exec.Proc) {
				if _, err := q.Repair(sys, p, dy.Fwd, es, ed); err != nil {
					t.Fatal(err)
				}
				var err error
				full, _, err = algo.BFSDepths(sys, p, dy.Fwd, 0)
				if err != nil {
					t.Fatal(err)
				}
			})
			ref := algo.RefBFSDepth(graph.MustBuild(c.V, allSrc, allDst), 0)
			for v := range full {
				if q.Depth[v] != full[v] {
					t.Fatalf("%s batch %d: vertex %d: repaired depth %d != full recompute %d",
						name, batch, v, q.Depth[v], full[v])
				}
				if q.Depth[v] != ref[v] {
					t.Fatalf("%s batch %d: vertex %d: repaired depth %d != reference %d",
						name, batch, v, q.Depth[v], ref[v])
				}
			}
		}
	}
}

// Incremental WCC repair must converge to the canonical component-minimum
// labels — bit-identical to full recompute and to union-find — after
// every sealed batch (insertions mirrored into the transpose overlay).
func TestIncrementalWCCBitIdentical(t *testing.T) {
	for _, name := range dynamicEngines {
		c := randomCSR(23, 400)
		ctx, sys, dy := dynSetup(t, name, c)
		r := gen.NewRNG(7)
		allSrc := append([]uint32(nil), edgeList(c)...)
		allDst := append([]uint32(nil), edgeListDst(c)...)

		var q *algo.IncWCC
		ctx.Run("main", func(p exec.Proc) {
			var err error
			q, _, err = algo.NewIncWCC(sys, p, dy.Fwd, dy.Tr)
			if err != nil {
				t.Fatal(err)
			}
		})
		for batch := 0; batch < 3; batch++ {
			es, ed := insertBatch(t, dy, r, c.V, 30, &allSrc, &allDst)
			var full *algo.IncWCC
			ctx.Run("main", func(p exec.Proc) {
				if _, err := q.Repair(sys, p, dy.Fwd, dy.Tr, es, ed); err != nil {
					t.Fatal(err)
				}
				var err error
				full, _, err = algo.NewIncWCC(sys, p, dy.Fwd, dy.Tr)
				if err != nil {
					t.Fatal(err)
				}
			})
			ref := algo.RefWCC(graph.MustBuild(c.V, allSrc, allDst))
			for v := range ref {
				if q.IDs[v] != full.IDs[v] {
					t.Fatalf("%s batch %d: vertex %d: repaired label %d != full recompute %d",
						name, batch, v, q.IDs[v], full.IDs[v])
				}
				if q.IDs[v] != ref[v] {
					t.Fatalf("%s batch %d: vertex %d: repaired label %d != union-find minimum %d",
						name, batch, v, q.IDs[v], ref[v])
				}
			}
		}
	}
}

// Tiering merges segments under a long-lived query state: across 32 seals
// (sizes that trigger every cascade depth, the transpose mirrored), on
// either backend, repaired BFS depths and WCC labels must stay bit-identical
// to a full recompute over the tiered overlay and to the serial references
// on the flat edge list.
func TestIncrementalRepairAcrossTieredSeals(t *testing.T) {
	for _, backend := range []struct {
		name string
		mk   func() exec.Context
	}{{"sim", func() exec.Context { return exec.NewSim() }}, {"real", func() exec.Context { return exec.NewReal() }}} {
		c := randomCSR(77, 500)
		ctx, sys, dy := dynSetupOn(t, backend.mk(), "blaze", c)
		r := gen.NewRNG(5)
		allSrc := append([]uint32(nil), edgeList(c)...)
		allDst := append([]uint32(nil), edgeListDst(c)...)
		var bfs *algo.IncBFS
		var wcc *algo.IncWCC
		ctx.Run("main", func(p exec.Proc) {
			var err error
			if bfs, _, err = algo.NewIncBFS(sys, p, dy.Fwd, 0); err != nil {
				t.Fatal(err)
			}
			if wcc, _, err = algo.NewIncWCC(sys, p, dy.Fwd, dy.Tr); err != nil {
				t.Fatal(err)
			}
		})
		maxSegs := 0
		for seal := 1; seal <= 32; seal++ {
			es, ed := insertBatch(t, dy, r, c.V, 6+seal%2, &allSrc, &allDst)
			maxSegs = max(maxSegs, dy.Segments())
			var fullBFS []int32
			var fullWCC *algo.IncWCC
			ctx.Run("main", func(p exec.Proc) {
				if _, err := bfs.Repair(sys, p, dy.Fwd, es, ed); err != nil {
					t.Fatal(err)
				}
				if _, err := wcc.Repair(sys, p, dy.Fwd, dy.Tr, es, ed); err != nil {
					t.Fatal(err)
				}
				var err error
				if fullBFS, _, err = algo.BFSDepths(sys, p, dy.Fwd, 0); err != nil {
					t.Fatal(err)
				}
				if fullWCC, _, err = algo.NewIncWCC(sys, p, dy.Fwd, dy.Tr); err != nil {
					t.Fatal(err)
				}
			})
			flat := graph.MustBuild(c.V, allSrc, allDst)
			refBFS, refWCC := algo.RefBFSDepth(flat, 0), algo.RefWCC(flat)
			for v := range refBFS {
				if bfs.Depth[v] != fullBFS[v] || bfs.Depth[v] != refBFS[v] {
					t.Fatalf("%s seal %d (%d segments): depth(%d) repaired %d, recomputed %d, reference %d",
						backend.name, seal, dy.Segments(), v, bfs.Depth[v], fullBFS[v], refBFS[v])
				}
				if wcc.IDs[v] != fullWCC.IDs[v] || wcc.IDs[v] != refWCC[v] {
					t.Fatalf("%s seal %d (%d segments): label(%d) repaired %d, recomputed %d, reference %d",
						backend.name, seal, dy.Segments(), v, wcc.IDs[v], fullWCC.IDs[v], refWCC[v])
				}
			}
		}
		if dy.Merges() == 0 || maxSegs > 6 || len(dy.Tr.Segs) != dy.Segments() {
			t.Errorf("%s: %d merges, at most %d segments (want <= 6), %d forward vs %d transpose at the end",
				backend.name, dy.Merges(), maxSegs, dy.Segments(), len(dy.Tr.Segs))
		}
	}
}

// A batch that cannot improve anything must repair in zero iterations.
func TestRepairNoOpBatches(t *testing.T) {
	c := randomCSR(5, 600)
	ctx, sys, dy := dynSetup(t, "blaze", c)
	ctx.Run("main", func(p exec.Proc) {
		q, _, err := algo.NewIncBFS(sys, p, dy.Fwd, 0)
		if err != nil {
			t.Fatal(err)
		}
		w, _, err := algo.NewIncWCC(sys, p, dy.Fwd, dy.Tr)
		if err != nil {
			t.Fatal(err)
		}
		// Re-insert an existing edge: depths and labels cannot improve.
		es, ed := []uint32{0}, []uint32{1}
		dy.Add(0, 1)
		dy.Seal()
		if iters, err := q.Repair(sys, p, dy.Fwd, es, ed); err != nil || iters != 0 {
			t.Errorf("BFS no-op repair: iters=%d err=%v", iters, err)
		}
		if iters, err := w.Repair(sys, p, dy.Fwd, dy.Tr, es, ed); err != nil || iters != 0 {
			t.Errorf("WCC no-op repair: iters=%d err=%v", iters, err)
		}
	})
}

// BFSDepths must agree with BFS's own depth structure on a static graph:
// the depth of every vertex equals the level its parent chain implies.
func TestBFSDepthsMatchesReference(t *testing.T) {
	for _, name := range dynamicEngines {
		c := randomCSR(31, 900)
		ctx, sys, _ := dynSetup(t, name, c)
		g := engine.FromCSR(ctx, "static", c, 1, ssd.OptaneSSD, nil, nil)
		ref := algo.RefBFSDepth(c, 0)
		ctx.Run("main", func(p exec.Proc) {
			depth, _, err := algo.BFSDepths(sys, p, g, 0)
			if err != nil {
				t.Fatal(err)
			}
			for v := range ref {
				if depth[v] != ref[v] {
					t.Fatalf("%s: depth(%d) = %d, want %d", name, v, depth[v], ref[v])
				}
			}
		})
	}
}

// edgeList / edgeListDst extract a CSR's edge list in CSR order (the
// order MergeSegments and MustBuild preserve).
func edgeList(c *graph.CSR) []uint32 {
	out := make([]uint32, 0, c.E)
	for v := uint32(0); v < c.V; v++ {
		b, e := c.EdgeRange(v)
		for i := b; i < e; i++ {
			out = append(out, v)
		}
	}
	return out
}

func edgeListDst(c *graph.CSR) []uint32 {
	out := make([]uint32, 0, c.E)
	for i := int64(0); i < c.E; i++ {
		out = append(out, graph.GetEdge(c.Adj, i))
	}
	return out
}
