package ingest

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"blaze/gen"
	"blaze/internal/graph"
)

// edgeShape generates one adversarial edge list for the radix sort and the
// merge: n is the vertex count the build is told (0 = derive it).
type edgeShape struct {
	name string
	gen  func(r *rand.Rand) (n uint32, src, dst []uint32)
	// heavy marks a shape whose every build writes V-sized files too large
	// to repeat under all four budgets: it runs under the prime one, and not
	// at all in -short mode (TestRunsSortEveryDigit covers the digits).
	heavy bool
}

func randomEdges(r *rand.Rand, e int, id func() uint32) (src, dst []uint32) {
	src, dst = make([]uint32, e), make([]uint32, e)
	for i := range src {
		src[i], dst[i] = id(), id()
	}
	return src, dst
}

var edgeShapes = []edgeShape{
	{name: "random", gen: func(r *rand.Rand) (uint32, []uint32, []uint32) {
		src, dst := randomEdges(r, 700, func() uint32 { return uint32(r.Intn(300)) })
		return 300, src, dst
	}},
	{name: "one source", gen: func(r *rand.Rand) (uint32, []uint32, []uint32) {
		src, dst := randomEdges(r, 400, func() uint32 { return uint32(r.Intn(1000)) })
		for i := range src {
			src[i] = 77
		}
		return 0, src, dst
	}},
	{name: "one destination", gen: func(r *rand.Rand) (uint32, []uint32, []uint32) {
		src, dst := randomEdges(r, 400, func() uint32 { return uint32(r.Intn(1000)) })
		for i := range dst {
			dst[i] = 5
		}
		return 0, src, dst
	}},
	// Ids on both sides of 2^24 differ in every byte, so all eight radix
	// passes run. The index files are 64 MiB each.
	{name: "ids past 2^24", heavy: true, gen: func(r *rand.Rand) (uint32, []uint32, []uint32) {
		src, dst := randomEdges(r, 300, func() uint32 { return 1<<24 - 150 + uint32(r.Intn(300)) })
		return 1<<24 + 150, src, dst
	}},
	// A vertex space far larger than any run: nothing V-sized may be
	// touched per run.
	{name: "V >> run", gen: func(r *rand.Rand) (uint32, []uint32, []uint32) {
		src, dst := randomEdges(r, 200, func() uint32 { return uint32(r.Intn(1 << 20)) })
		return 1 << 20, src, dst
	}},
	{name: "duplicates and self-loops", gen: func(r *rand.Rand) (uint32, []uint32, []uint32) {
		src, dst := randomEdges(r, 500, func() uint32 { return uint32(r.Intn(6)) })
		for i := 0; i < len(src); i += 3 {
			dst[i] = src[i]
		}
		return 6, src, dst
	}},
	{name: "empty", gen: func(r *rand.Rand) (uint32, []uint32, []uint32) { return 9, nil, nil }},
}

// The tentpole's property: whatever the edge list looks like and however
// the budget cuts it into runs, all four files are the bytes graph.Build +
// Transpose + WriteFiles write.
func TestBuildByteIdenticalAcrossShapesAndBudgets(t *testing.T) {
	for si, shape := range edgeShapes {
		if shape.heavy && testing.Short() {
			continue
		}
		n, src, dst := shape.gen(rand.New(rand.NewSource(int64(si) + 1)))
		vertices := n
		if n == 0 {
			for i := range src {
				vertices = max(vertices, src[i]+1, dst[i]+1)
			}
		}
		dir := t.TempDir()
		want := filepath.Join(dir, "ref")
		writeReference(t, vertices, src, dst, want)
		budgets := []struct {
			name  string
			edges int64
		}{{"one edge", 1}, {"two edges", 2}, {"prime", 97}, {"all", int64(len(src)) + 10}}
		if shape.heavy {
			budgets = budgets[2:3]
		}
		for bi, b := range budgets {
			t.Run(shape.name+"/"+b.name, func(t *testing.T) {
				got := filepath.Join(dir, fmt.Sprint("ext", bi))
				stats, err := Build(&SliceSource{Src: src, Dst: dst}, got,
					Config{MaxMemBytes: b.edges * edgeMemBytes, TmpDir: dir, Vertices: n})
				if err != nil {
					t.Fatal(err)
				}
				if runs := (len(src) + int(b.edges) - 1) / int(b.edges); stats.Runs != runs {
					t.Errorf("runs = %d, want %d", stats.Runs, runs)
				}
				if stats.Vertices != vertices || stats.Edges != int64(len(src)) {
					t.Errorf("stats = %+v, want %d vertices, %d edges", stats, vertices, len(src))
				}
				compareFiles(t, want, got)
			})
		}
	}
}

// Run formation and the merge on ids over the whole uint32 range, where all
// eight radix digits vary, without the V-sized files a Build over such ids
// would write: the merged streams must be the edge list in (src, seq) and
// (dst, src, seq) order.
func TestRunsSortEveryDigit(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	src, dst := randomEdges(r, 3000, r.Uint32)
	for i := 0; i < len(src); i += 7 { // repeated sources and whole edges
		src[i], dst[i] = src[i/2], dst[i/3]
	}
	rf, err := newRunFormer(t.TempDir(), 257)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.close()
	for i := range src {
		if err := rf.add(src[i], dst[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := rf.flush(); err != nil {
		t.Fatal(err)
	}
	if want := (len(src) + 256) / 257; len(rf.runs) != want {
		t.Fatalf("%d runs, want %d", len(rf.runs), want)
	}

	order := make([]int, len(src))
	for i := range order {
		order[i] = i
	}
	for _, leg := range []struct {
		name      string
		runFile   *os.File
		transpose bool
		less      func(a, b int) bool
		col       []uint32
	}{
		{"forward", rf.fwd, false, func(a, b int) bool { return src[a] < src[b] }, dst},
		{"transpose", rf.tr, true, func(a, b int) bool {
			return dst[a] < dst[b] || dst[a] == dst[b] && src[a] < src[b]
		}, src},
	} {
		path := filepath.Join(t.TempDir(), "adj")
		w, err := graph.NewAdjWriter(path, minBlockBytes)
		if err != nil {
			t.Fatal(err)
		}
		if err := mergeRuns(leg.runFile, rf.runs, minBlockBytes, leg.transpose, w); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sort.SliceStable(order, func(i, j int) bool { return leg.less(order[i], order[j]) })
		for i, e := range order {
			if g := graph.GetEdge(got, int64(i)); g != leg.col[e] {
				t.Fatalf("%s: entry %d is %d, want edge %d's %d", leg.name, i, g, e, leg.col[e])
			}
		}
	}
}

// Everything edge-proportional is carved out of MaxMemBytes: the run
// buffer with its sort scratch, and the merge's blocks for both directions.
func TestBudgetArithmetic(t *testing.T) {
	for _, budget := range []int64{edgeMemBytes, 4096, 1<<20 + 7, 2 << 20, 256 << 20} {
		ce := capEdges(budget)
		if ce*edgeMemBytes > budget || (ce+1)*edgeMemBytes <= budget {
			t.Errorf("budget %d: capEdges = %d does not fill it with %d B per edge", budget, ce, edgeMemBytes)
		}
		for _, runs := range []int{1, 4, 8, 1000} {
			bb := int64(blockBytes(budget, runs))
			held := bb * int64(2*(runs+1))
			switch {
			case bb < minBlockBytes || bb > maxBlockBytes || bb%recBytes != 0:
				t.Errorf("budget %d, %d runs: block of %d bytes", budget, runs, bb)
			case held > budget && bb != minBlockBytes:
				t.Errorf("budget %d, %d runs: merge holds %d bytes in blocks above the floor", budget, runs, held)
			}
		}
	}
	if got := capEdges(3); got != 1 {
		t.Errorf("capEdges below one edge = %d, want the floor of 1", got)
	}

	// And Build uses exactly that arithmetic: the run count follows from it.
	const edges = 1000
	r := rand.New(rand.NewSource(3))
	src, dst := randomEdges(r, edges, func() uint32 { return uint32(r.Intn(64)) })
	dir := t.TempDir()
	for _, budget := range []int64{edgeMemBytes * 7, 4096, 1 << 20} {
		stats, err := Build(&SliceSource{Src: src, Dst: dst}, filepath.Join(dir, "g"), Config{MaxMemBytes: budget, TmpDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if want := int((edges + capEdges(budget) - 1) / capEdges(budget)); stats.Runs != want {
			t.Errorf("budget %d: %d runs, want ceil(%d / %d) = %d", budget, stats.Runs, edges, capEdges(budget), want)
		}
	}
}

// BenchmarkBuild is the layer's in-package number: one whole Build, both
// directions, per iteration. The multi-run leg is the benchmark workload's
// shape (r2 at 1/2048 under 2 MiB, eight runs); the single-run leg fits the
// input in the budget, so the merge degenerates to a copy.
func BenchmarkBuild(b *testing.B) {
	p, err := gen.PresetByShort("r2")
	if err != nil {
		b.Fatal(err)
	}
	p = p.Scaled(2048)
	src, dst := p.Generate()
	for _, leg := range []struct {
		name   string
		budget int64
	}{{"MultiRun", 2 << 20}, {"SingleRun", 64 << 20}} {
		b.Run(leg.name, func(b *testing.B) {
			dir := b.TempDir()
			b.SetBytes(int64(len(src)) * recBytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stats, err := Build(&SliceSource{Src: src, Dst: dst}, filepath.Join(dir, "g"),
					Config{MaxMemBytes: leg.budget, TmpDir: dir, Vertices: p.V})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(stats.Runs), "runs")
				}
			}
		})
	}
}
