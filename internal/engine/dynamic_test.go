package engine

import (
	"bytes"
	"math/bits"
	"math/rand"
	"testing"

	"blaze/gen"
	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/graph"
	"blaze/internal/metrics"
	"blaze/internal/pagecache"
	"blaze/internal/ssd"
)

// inDegrees runs a full-frontier counting EdgeMap over g (base + any
// segments) and returns per-vertex in-degrees.
func inDegrees(t *testing.T, ctx exec.Context, g *Graph, conf Config) []int64 {
	t.Helper()
	var got []int64
	ctx.Run("main", func(p exec.Proc) {
		var err error
		if got, err = edgeSums[int64](ctx, p, g, conf); err != nil {
			t.Errorf("EdgeMap: %v", err)
		}
	})
	return got
}

// Multi-source EdgeMap must see the union of base and segment edges.
func TestEdgeMapIteratesSegments(t *testing.T) {
	for _, numDev := range []int{1, 2, 4} {
		ctx := exec.NewSim()
		stats := metrics.NewIOStats(numDev)
		g, c := testGraph(ctx, numDev, stats)
		dy := NewDynamic(ctx, g, nil, ssd.OptaneSSD, stats, nil, nil)

		// Two sealed batches (equal, so tiering folds the second into the
		// first) plus reference bookkeeping.
		want := make([]int64, c.V)
		for i := int64(0); i < c.E; i++ {
			want[graph.GetEdge(c.Adj, i)]++
		}
		for batch := 0; batch < 2; batch++ {
			for i := 0; i < 500; i++ {
				s := uint32((batch*7919 + i*104729) % int(c.V))
				d := uint32((batch*31 + i*13) % int(c.V))
				if err := dy.Add(s, d); err != nil {
					t.Fatal(err)
				}
				want[d]++
			}
			if src, dst := dy.Seal(); len(src) != 500 || len(dst) != 500 {
				t.Fatalf("Seal returned %d/%d edges", len(src), len(dst))
			}
		}
		if dy.Segments() != 1 || g.Segs[0].CSR.E != 1000 {
			t.Fatalf("segments = %d, want the two batches tiered into 1", dy.Segments())
		}

		got := inDegrees(t, ctx, g, DefaultConfig(c.E))
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("numDev=%d: in-degree(%d) = %d, want %d", numDev, v, got[v], want[v])
			}
		}
	}
}

// An EdgeMap over base+segments must be operation-equivalent to an EdgeMap
// over the compacted (flattened) graph — and compaction must not change
// results.
func TestCompactPreservesResults(t *testing.T) {
	ctx := exec.NewSim()
	g, c := testGraph(ctx, 2, nil)
	dy := NewDynamic(ctx, g, nil, ssd.OptaneSSD, nil, nil, nil)
	for i := 0; i < 300; i++ {
		if err := dy.Add(uint32(i*37%int(c.V)), uint32(i*101%int(c.V))); err != nil {
			t.Fatal(err)
		}
	}
	dy.Seal()
	overlay := inDegrees(t, ctx, g, DefaultConfig(c.E))
	if err := dy.Compact(); err != nil {
		t.Fatal(err)
	}
	if len(g.Segs) != 0 {
		t.Fatalf("segments survive compaction: %d", len(g.Segs))
	}
	if g.CSR.E != c.E+300 {
		t.Fatalf("compacted E = %d, want %d", g.CSR.E, c.E+300)
	}
	compacted := inDegrees(t, ctx, g, DefaultConfig(g.CSR.E))
	for v := range overlay {
		if overlay[v] != compacted[v] {
			t.Fatalf("in-degree(%d): overlay %d != compacted %d", v, overlay[v], compacted[v])
		}
	}
}

// The transpose mirror: every insertion s→d must appear as d→s in the
// transpose overlay.
func TestDynamicMirrorsTranspose(t *testing.T) {
	ctx := exec.NewSim()
	p := gen.Preset{Kind: gen.KindRMAT, A: 0.57, B: 0.19, C: 0.19, Seed: 3, V: 512, E: 4000}
	src, dst := p.Generate()
	c := graph.MustBuild(p.V, src, dst)
	tr := c.Transpose()
	fwd := FromCSR(ctx, "m", c, 1, ssd.OptaneSSD, nil, nil)
	trg := FromCSR(ctx, "m.t", tr, 1, ssd.OptaneSSD, nil, nil)
	dy := NewDynamic(ctx, fwd, trg, ssd.OptaneSSD, nil, nil, nil)
	for i := 0; i < 100; i++ {
		if err := dy.Add(uint32(i*5%int(c.V)), uint32(i*11%int(c.V))); err != nil {
			t.Fatal(err)
		}
	}
	dy.Seal()
	if len(fwd.Segs) != 1 || len(trg.Segs) != 1 {
		t.Fatalf("segments: fwd=%d tr=%d", len(fwd.Segs), len(trg.Segs))
	}
	// Out-degree over the transpose overlay == in-degree over the forward
	// overlay, vertex for vertex.
	fin := inDegrees(t, ctx, fwd, DefaultConfig(c.E))
	var tout [512]int64
	for v := uint32(0); v < trg.CSR.V; v++ {
		tout[v] = int64(trg.CSR.Degrees[v]) + int64(trg.Segs[0].CSR.Degrees[v])
	}
	for v := range fin {
		if fin[v] != tout[v] {
			t.Fatalf("vertex %d: forward in-degree %d != transpose out-degree %d", v, fin[v], tout[v])
		}
	}
}

// A segment-free graph must execute the exact seed pipeline: same virtual
// makespan as before the multi-source refactor (regression anchor: the
// figure CSVs depend on it). We assert determinism and that wrapping in a
// Dynamic with no seals changes nothing.
func TestDynamicNoSegmentsIdentical(t *testing.T) {
	run := func(wrap bool) int64 {
		ctx := exec.NewSim()
		g, c := testGraph(ctx, 2, nil)
		if wrap {
			dy := NewDynamic(ctx, g, nil, ssd.OptaneSSD, nil, nil, nil)
			_ = dy
		}
		acc := make([]int64, c.V)
		ctx.Run("main", func(p exec.Proc) {
			EdgeMap(ctx, p, g, frontier.All(c.V),
				func(s, d uint32) int64 { return 1 },
				func(d uint32, v int64) bool { acc[d] += v; return false },
				func(d uint32) bool { return true },
				false, DefaultConfig(c.E))
		})
		return ctx.End
	}
	if a, b := run(false), run(true); a != b || a == 0 {
		t.Errorf("idle Dynamic wrapper changed the makespan: %d vs %d", a, b)
	}
}

// Compaction with a page cache must invalidate the base's and segments'
// stale pages.
func TestCompactDropsCachedPages(t *testing.T) {
	ctx := exec.NewSim()
	g, c := testGraph(ctx, 1, nil)
	cache := pagecache.New(8 << 20)
	conf := DefaultConfig(c.E)
	conf.PageCache = cache
	dy := NewDynamic(ctx, g, nil, ssd.OptaneSSD, nil, nil, cache)
	for i := 0; i < 200; i++ {
		dy.Add(uint32(i%int(c.V)), uint32((i*3)%int(c.V)))
	}
	dy.Seal()
	inDegrees(t, ctx, g, conf) // populate the cache from base + segment
	if cache.Len() == 0 {
		t.Fatal("cache empty after full-frontier run")
	}
	if err := dy.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := cache.Len(); n != 0 {
		t.Errorf("%d stale pages survive compaction", n)
	}
	// Post-compaction queries still agree with the reference count.
	got := inDegrees(t, ctx, g, conf)
	want := make([]int64, c.V)
	for i := int64(0); i < g.CSR.E; i++ {
		want[graph.GetEdge(g.CSR.Adj, i)]++
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("post-compaction in-degree(%d) = %d, want %d", v, got[v], want[v])
		}
	}
}

// csrEdges lists c's edges in CSR order: the list Build maps back to c.
func csrEdges(c *graph.CSR) (src, dst []uint32) {
	for v := uint32(0); v < c.V; v++ {
		for _, d := range neighbors(c, v) {
			src, dst = append(src, v), append(dst, d)
		}
	}
	return src, dst
}

// flattened materializes g's base + segments overlay.
func flattened(t *testing.T, g *Graph) *graph.CSR {
	t.Helper()
	parts := []*graph.CSR{g.CSR}
	for _, sg := range g.Segs {
		parts = append(parts, sg.CSR)
	}
	flat, err := graph.MergeSegments(parts...)
	if err != nil {
		t.Fatal(err)
	}
	return flat
}

// Whatever the batch sizes — empty, one edge, skewed — tiering must leave
// every segment at least twice its successor, never reuse a segment name,
// account for exactly the edges its merges rewrote, and leave the logical
// graph untouched: the overlay flattens to the bytes graph.Build produces
// from all edges in arrival order, in both mirrored directions.
func TestTieredSealsStayGeometric(t *testing.T) {
	ctx := exec.NewSim()
	c := graph.MustBuild(300, []uint32{0, 5, 5, 299}, []uint32{5, 1, 0, 7})
	fwd := FromCSR(ctx, "t", c, 1, ssd.OptaneSSD, nil, nil)
	trg := FromCSR(ctx, "t.t", c.Transpose(), 2, ssd.OptaneSSD, nil, nil)
	dy := NewDynamic(ctx, fwd, trg, ssd.OptaneSSD, nil, nil, nil)
	fs, fd := csrEdges(fwd.CSR)
	ts, td := csrEdges(trg.CSR)

	rng := rand.New(rand.NewSource(21))
	sizes := []int{0, 1, 1, 1, 700, 3, 0, 2, 1, 40, 41, 39, 1, 500, 1}
	for len(sizes) < 60 {
		sizes = append(sizes, rng.Intn(1<<rng.Intn(9)))
	}
	seen := map[string]bool{}
	var sealed, rewritten int64
	for step, n := range sizes {
		before := append([]*Graph(nil), fwd.Segs...)
		for i := 0; i < n; i++ {
			s, d := uint32(rng.Intn(int(c.V))), uint32(rng.Intn(int(c.V)))
			if err := dy.Add(s, d); err != nil {
				t.Fatal(err)
			}
			fs, fd = append(fs, s), append(fd, d)
			ts, td = append(ts, d), append(td, s)
		}
		if es, _ := dy.Seal(); len(es) != n {
			t.Fatalf("step %d: Seal returned %d edges of %d", step, len(es), n)
		}
		sealed += int64(n)
		for _, g := range []*Graph{fwd, trg} {
			var e int64
			for i, sg := range g.Segs {
				e += sg.CSR.E
				if i > 0 && g.Segs[i-1].CSR.E < 2*sg.CSR.E {
					t.Fatalf("step %d: %s segment %d holds %d edges, its successor %d", step, g.Name, i-1, g.Segs[i-1].CSR.E, sg.CSR.E)
				}
			}
			if e != sealed {
				t.Fatalf("step %d: %s segments hold %d edges, %d sealed", step, g.Name, e, sealed)
			}
		}
		if len(trg.Segs) != len(fwd.Segs) {
			t.Fatalf("step %d: %d forward segments, %d transpose", step, len(fwd.Segs), len(trg.Segs))
		}
		for i, sg := range fwd.Segs {
			if i < len(before) && before[i] == sg {
				continue
			}
			if seen[sg.Name] {
				t.Fatalf("step %d: segment name %q reused", step, sg.Name)
			}
			seen[sg.Name] = true
			for _, old := range before[i:] {
				rewritten += old.CSR.E
			}
			break // at most one new segment per seal, always the last
		}
		if dy.Rewritten() != rewritten {
			t.Fatalf("step %d: Rewritten = %d, segments merged away held %d", step, dy.Rewritten(), rewritten)
		}
		if step%7 == 0 || step == len(sizes)-1 {
			for _, x := range []struct {
				g        *Graph
				src, dst []uint32
			}{{fwd, fs, fd}, {trg, ts, td}} {
				got, want := flattened(t, x.g), graph.MustBuild(c.V, x.src, x.dst)
				if !bytes.Equal(got.Adj, want.Adj) {
					t.Fatalf("step %d: %s overlay differs from Build over all edges in arrival order", step, x.g.Name)
				}
			}
		}
	}
	if dy.Merges() == 0 || dy.Segments() > bits.Len64(uint64(sealed)) {
		t.Errorf("%d merges left %d segments for %d edges", dy.Merges(), dy.Segments(), sealed)
	}
}

// N equal batches leave popcount(N) segments: tiering is a binary counter.
// A seal folds in every segment its carry chain covers in one merge, so 32
// batches of 9 edges make 16 merges that rewrite 80 batches' worth of edges
// — a write amplification of 2.5.
func TestTierEqualBatchesCountBits(t *testing.T) {
	ctx := exec.NewSim()
	g, c := testGraph(ctx, 1, nil)
	dy := NewDynamic(ctx, g, nil, ssd.OptaneSSD, nil, nil, nil)
	for n := 1; n <= 40; n++ {
		for i := 0; i < 9; i++ {
			if err := dy.Add(uint32(n*31+i)%c.V, uint32(n+i*17)%c.V); err != nil {
				t.Fatal(err)
			}
		}
		dy.Seal()
		if want := bits.OnesCount(uint(n)); dy.Segments() != want {
			t.Fatalf("after %d equal seals: %d segments, want %d", n, dy.Segments(), want)
		}
		if n == 32 && (dy.Merges() != 16 || dy.Rewritten() != 80*9) {
			t.Errorf("after 32 equal seals: %d merges rewrote %d edges, want 16 and %d", dy.Merges(), dy.Rewritten(), 80*9)
		}
	}
}

// A merge retires its inputs: the handed cache drops their frames, and the
// merged segment — new name, new layout — is read from its device, never
// served the pages cached for a segment it replaced.
func TestMergeDropsCachedPages(t *testing.T) {
	ctx := exec.NewSim()
	g, c := testGraph(ctx, 1, nil)
	cache := pagecache.New(8 << 20)
	conf := DefaultConfig(c.E)
	conf.PageCache = cache
	dy := NewDynamic(ctx, g, nil, ssd.OptaneSSD, nil, nil, cache)
	seal := func(salt int) {
		for i := 0; i < 3000; i++ {
			dy.Add(uint32(i*salt)%c.V, uint32(i*7+salt)%c.V)
		}
		dy.Seal()
	}
	seal(3)
	first := g.Segs[0]
	inDegrees(t, ctx, g, conf) // caches the base's and the first segment's pages
	basePages, firstPages := int(g.CSR.NumPages()), int(first.CSR.NumPages())
	if cache.Len() != basePages+firstPages {
		t.Fatalf("cache holds %d pages, want %d base + %d segment", cache.Len(), basePages, firstPages)
	}

	seal(5) // equal size: folds the first segment in
	if len(g.Segs) != 1 || g.Segs[0].Name == first.Name {
		t.Fatalf("second seal left %d segments, newest %q (first was %q)", len(g.Segs), g.Segs[0].Name, first.Name)
	}
	if cache.Len() != basePages {
		t.Errorf("cache holds %d pages after the merge, want the base's %d", cache.Len(), basePages)
	}
	id := cache.GraphID(first.Name)
	buf := make([]byte, graph.PageSize)
	for p := int64(0); p < first.CSR.NumPages(); p++ {
		if prefix, _ := cache.ProbeRun(id, p, 1, 1, buf); prefix == 1 {
			t.Fatalf("page %d of merged-away segment %q still cached", p, first.Name)
		}
	}

	before := cache.StatsDetail()
	got := inDegrees(t, ctx, g, conf)
	after := cache.StatsDetail()
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if merged := g.Segs[0].CSR.NumPages(); hits != int64(basePages) || misses != merged {
		t.Errorf("after the merge: %d hits, %d misses; want %d (base) and %d (every page of the merged segment)",
			hits, misses, basePages, merged)
	}
	want := make([]int64, c.V)
	for _, sg := range append([]*Graph{g}, g.Segs...) {
		for i := int64(0); i < sg.CSR.E; i++ {
			want[graph.GetEdge(sg.CSR.Adj, i)]++
		}
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("post-merge in-degree(%d) = %d, want %d", v, got[v], want[v])
		}
	}
}
