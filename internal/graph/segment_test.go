package graph

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// A sealed segment overlays its base: merged, a vertex's adjacency is its
// base edges, then the segment's; the transpose mirrors every insertion.
func TestSealedSegmentOverlaysBase(t *testing.T) {
	base := MustBuild(8, []uint32{0, 0, 3}, []uint32{1, 2, 4})
	buf := NewEdgeBuffer(8)
	for _, e := range [][2]uint32{{0, 5}, {3, 1}, {7, 0}} {
		if err := buf.Add(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	fwd, tr := buf.Seal(true)
	if fwd == nil || tr == nil {
		t.Fatal("Seal of non-empty buffer returned nil")
	}
	if buf.Len() != 0 {
		t.Errorf("buffer not reset after Seal: len=%d", buf.Len())
	}
	c := MustMergeSegments(base, fwd)
	if c.E != 6 {
		t.Errorf("merged E = %d, want 6", c.E)
	}
	if c.Degree(0) != 3 || c.Degree(3) != 2 || c.Degree(7) != 1 {
		t.Errorf("merged degrees = %d,%d,%d", c.Degree(0), c.Degree(3), c.Degree(7))
	}
	if got := neighbors(c, 0); !reflect.DeepEqual(got, []uint32{1, 2, 5}) {
		t.Errorf("Neighbors(0) = %v", got)
	}
	if got := neighbors(c, 3); !reflect.DeepEqual(got, []uint32{4, 1}) {
		t.Errorf("Neighbors(3) = %v", got)
	}
	if got := neighbors(tr, 5); !reflect.DeepEqual(got, []uint32{0}) {
		t.Errorf("transpose Neighbors(5) = %v", got)
	}
}

func TestSealEmptyBuffer(t *testing.T) {
	fwd, tr := NewEdgeBuffer(4).Seal(true)
	if fwd != nil || tr != nil {
		t.Error("Seal of empty buffer returned segments")
	}
}

// A seal without a mirror builds no transpose, and the edge slices taken
// just before it are the caller's afterwards: later Adds must not reach them.
func TestSealForwardOnlyHandsOverEdges(t *testing.T) {
	b := NewEdgeBuffer(4)
	for _, e := range [][2]uint32{{2, 1}, {0, 3}} {
		if err := b.Add(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	src, dst := b.Edges()
	fwd, tr := b.Seal(false)
	if fwd == nil || fwd.E != 2 || tr != nil {
		t.Fatalf("Seal(false) = %v, %v; want a 2-edge forward segment and no transpose", fwd, tr)
	}
	if err := b.Add(1, 1); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(src, []uint32{2, 0}) || !reflect.DeepEqual(dst, []uint32{1, 3}) {
		t.Errorf("sealed batch changed under the caller: %v -> %v", src, dst)
	}
}

func TestMergeSegmentsRejectsBadParts(t *testing.T) {
	ok := MustBuild(4, []uint32{0}, []uint32{1})
	if _, err := MergeSegments(); err == nil {
		t.Error("merge of nothing accepted")
	}
	if _, err := MergeSegments(ok, MustBuild(5, nil, nil)); err == nil {
		t.Error("parts over different vertex spaces accepted")
	}
	if _, err := MergeSegments(ok, NewIndexOnly([]uint32{0, 1, 0, 0})); err == nil {
		t.Error("index-only part accepted")
	}
	if _, err := MergeSegments(NewIndexOnly([]uint32{1, 0, 0, 0}), ok); err == nil {
		t.Error("index-only base accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustMergeSegments did not panic on a bad part")
		}
	}()
	MustMergeSegments(ok, MustBuild(5, nil, nil))
}

func TestEdgeBufferRejectsOutOfRange(t *testing.T) {
	b := NewEdgeBuffer(4)
	if err := b.Add(4, 0); err == nil {
		t.Error("out-of-range source accepted")
	}
	if err := b.Add(0, 4); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if b.Len() != 0 {
		t.Errorf("rejected edges buffered: len=%d", b.Len())
	}
}

// MergeSegments of a base and its sealed segments must equal Build over the
// concatenation (base edges, then each segment's edges in seal order) —
// the invariant compaction and incremental query results rely on.
func TestMergeSegmentsMatchesRebuild(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(7))
	randEdges := func(m int) (src, dst []uint32) {
		for i := 0; i < m; i++ {
			src = append(src, uint32(rng.Intn(n)))
			dst = append(dst, uint32(rng.Intn(n)))
		}
		return
	}
	bs, bd := randEdges(200)
	parts := []*CSR{MustBuild(n, bs, bd)}
	allSrc, allDst := append([]uint32{}, bs...), append([]uint32{}, bd...)
	for seg := 0; seg < 3; seg++ {
		buf := NewEdgeBuffer(n)
		ss, sd := randEdges(30)
		for i := range ss {
			if err := buf.Add(ss[i], sd[i]); err != nil {
				t.Fatal(err)
			}
		}
		fwd, _ := buf.Seal(false)
		parts = append(parts, fwd)
		allSrc, allDst = append(allSrc, ss...), append(allDst, sd...)
	}
	flat, err := MergeSegments(parts...)
	if err != nil {
		t.Fatal(err)
	}
	want := MustBuild(n, allSrc, allDst)
	if flat.E != want.E {
		t.Fatalf("merged E=%d, want %d", flat.E, want.E)
	}
	if !bytes.Equal(flat.Adj, want.Adj) {
		t.Error("merged adjacency differs from rebuild over concatenated edges")
	}
	if !reflect.DeepEqual(flat.Degrees, want.Degrees) {
		t.Error("merged degrees differ from rebuild")
	}
	if !reflect.DeepEqual(flat.PageBegin, want.PageBegin) {
		t.Error("merged page map differs from rebuild")
	}
}

// AdjWriter's streamed output must be byte-identical to WriteAdj on the
// same edge order — the property that lets the external-sort ingester emit
// files interchangeable with the in-memory builder's.
func TestAdjWriterMatchesWriteAdj(t *testing.T) {
	c := MustBuild(16, []uint32{0, 0, 1, 5, 5, 5}, []uint32{3, 1, 2, 9, 0, 4})
	dir := t.TempDir()
	batch := filepath.Join(dir, "batch.adj")
	if err := WriteAdj(c, batch); err != nil {
		t.Fatal(err)
	}
	streamed := filepath.Join(dir, "streamed.adj")
	w, err := NewAdjWriter(streamed, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < c.E; i++ {
		if err := w.WriteEdges([]uint32{GetEdge(c.Adj, i)}); err != nil {
			t.Fatal(err)
		}
	}
	if w.Edges() != c.E {
		t.Errorf("AdjWriter.Edges = %d, want %d", w.Edges(), c.E)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(streamed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("streamed adjacency differs: %d vs %d bytes", len(got), len(want))
	}
}

// WriteEdges must write what WriteAdj writes however the batches fall
// against the writer's block and the page boundary: a batch that spans a
// block, one that ends exactly on it, single edges, and a tail that needs
// padding.
func TestAdjWriterWriteEdgesAcrossPages(t *testing.T) {
	const n = 2*EdgesPerPage + 37 // two whole pages and a padded third
	src, dst := make([]uint32, n), make([]uint32, n)
	for i := range dst {
		src[i], dst[i] = uint32(i%5), uint32(i*7%n)
	}
	c := MustBuild(n, src, dst)
	dir := t.TempDir()
	batch := filepath.Join(dir, "batch.adj")
	if err := WriteAdj(c, batch); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(batch)
	if err != nil {
		t.Fatal(err)
	}
	edges := make([]uint32, c.E)
	for i := range edges {
		edges[i] = GetEdge(c.Adj, int64(i))
	}
	for _, sizes := range [][]int{{n}, {EdgesPerPage - 1, 2, EdgesPerPage - 1, n}, {EdgesPerPage, EdgesPerPage, n}, {1, 0, 3}} {
		streamed := filepath.Join(dir, "streamed.adj")
		w, err := NewAdjWriter(streamed, PageSize) // one-page blocks
		if err != nil {
			t.Fatal(err)
		}
		for rest, i := edges, 0; len(rest) > 0; i++ {
			k := min(sizes[i%len(sizes)], len(rest))
			if err := w.WriteEdges(rest[:k]); err != nil {
				t.Fatal(err)
			}
			rest = rest[k:]
		}
		if w.Edges() != c.E {
			t.Errorf("batches %v: Edges = %d, want %d", sizes, w.Edges(), c.E)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(streamed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("batches %v: streamed adjacency differs: %d vs %d bytes", sizes, len(got), len(want))
		}
	}
}
