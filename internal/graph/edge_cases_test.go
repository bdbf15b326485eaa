package graph

import (
	"os"
	"path/filepath"
	"testing"
)

func TestEmptyGraph(t *testing.T) {
	c := MustBuild(16, nil, nil)
	if c.E != 0 || c.NumPages() != 0 {
		t.Errorf("empty graph: E=%d pages=%d", c.E, c.NumPages())
	}
	if c.Offset(15) != 0 {
		t.Error("offsets of empty graph nonzero")
	}
	if _, _, ok := c.PageRange(0); ok {
		t.Error("PageRange on edgeless vertex reported ok")
	}
	// Round-trips through files.
	dir := t.TempDir()
	base := filepath.Join(dir, "empty")
	if err := WriteFiles(c, nil, base); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(base + ".gr.index")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.E != 0 || loaded.V != 16 {
		t.Errorf("loaded empty graph: V=%d E=%d", loaded.V, loaded.E)
	}
}

func TestSingleVertexSpanningManyPages(t *testing.T) {
	// One vertex owning 5000 edges spans ~5 pages; the page map must point
	// every covered page back at it.
	deg := make([]uint32, 16)
	deg[3] = 5000
	c := NewIndexOnly(deg)
	first, last, ok := c.PageRange(3)
	if !ok || first != 0 || last != c.NumPages()-1 {
		t.Fatalf("PageRange = (%d,%d,%v)", first, last, ok)
	}
	for p := int64(0); p < c.NumPages(); p++ {
		if c.PageBegin[p] != 3 {
			t.Errorf("PageBegin[%d] = %d, want 3", p, c.PageBegin[p])
		}
	}
}

func TestAdjFilePagePadding(t *testing.T) {
	// The adjacency file must be padded to whole pages so device reads of
	// the final page never short-read.
	dir := t.TempDir()
	c := MustBuild(16, []uint32{0, 1, 2}, []uint32{1, 2, 3}) // 12 bytes of edges
	path := filepath.Join(dir, "a.adj")
	if err := WriteAdj(c, path); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != c.NumPages()*PageSize {
		t.Errorf("adj file size %d, want %d (page padded)", st.Size(), c.NumPages()*PageSize)
	}
}

func TestWriteAdjRequiresAdjacency(t *testing.T) {
	c := NewIndexOnly([]uint32{1, 0})
	if err := WriteAdj(c, filepath.Join(t.TempDir(), "x")); err == nil {
		t.Error("WriteAdj on index-only CSR did not error")
	}
}

func TestOpenAdjRejectsTruncated(t *testing.T) {
	dir := t.TempDir()
	c := MustBuild(16, []uint32{0, 0, 0}, []uint32{1, 2, 3})
	short := filepath.Join(dir, "short.adj")
	if err := os.WriteFile(short, make([]byte, 4), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenAdj(short, c); err == nil {
		t.Error("truncated adjacency accepted")
	}
}

// TestReadAdjRejectsOutOfRangeDestination: an adjacency naming a vertex
// past V must not load, since the in-core engines index vertex arrays with
// it.
func TestReadAdjRejectsOutOfRangeDestination(t *testing.T) {
	base := filepath.Join(t.TempDir(), "g")
	c := MustBuild(4, []uint32{0, 1, 2, 3}, []uint32{1, 2, 3, 0})
	if err := WriteFiles(c, nil, base); err != nil {
		t.Fatal(err)
	}
	idx, err := ReadIndex(base + ".gr.index")
	if err != nil {
		t.Fatal(err)
	}
	if err := ReadAdj(base+".gr.adj.0", idx); err != nil {
		t.Fatalf("valid adjacency rejected: %v", err)
	}
	f, err := openRW(base + ".gr.adj.0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{100}, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	idx, err = ReadIndex(base + ".gr.index")
	if err != nil {
		t.Fatal(err)
	}
	if err := ReadAdj(base+".gr.adj.0", idx); err == nil {
		t.Error("destination 100 of a 4-vertex graph accepted")
	} else if idx.Adj != nil {
		t.Error("rejected adjacency attached to the CSR")
	}
}

func TestReadIndexRejectsOversizedHeader(t *testing.T) {
	// A header claiming more vertices than the file could hold must be
	// rejected before any large allocation (fuzz regression).
	dir := t.TempDir()
	path := filepath.Join(dir, "huge.gr.index")
	c := MustBuild(16, []uint32{0}, []uint32{1})
	if err := WriteIndex(c, path); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite V (offset 16) with an enormous value.
	huge := make([]byte, 8)
	for i := range huge {
		huge[i] = 0xFF
	}
	if _, err := f.WriteAt(huge, 16); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := ReadIndex(path); err == nil {
		t.Error("oversized header accepted")
	}
}

func TestNeighborsPanicsOnIndexOnly(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Neighbors on index-only CSR did not panic")
		}
	}()
	NewIndexOnly([]uint32{1, 0}).Neighbors(0)
}

// Build used to panic on malformed edge lists; it now reports errors (the
// PR 2 error-propagation contract). MustBuild keeps the panic for inputs
// that are valid by construction.
func TestBuildReturnsErrors(t *testing.T) {
	if _, err := Build(4, []uint32{0, 1}, []uint32{1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Build(4, []uint32{4}, []uint32{0}); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := Build(4, []uint32{0}, []uint32{4}); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if c, err := Build(4, []uint32{3}, []uint32{0}); err != nil || c == nil {
		t.Errorf("valid edge list rejected: %v", err)
	}
}

func TestMustBuildPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild on out-of-range endpoint did not panic")
		}
	}()
	MustBuild(2, []uint32{5}, []uint32{0})
}

func TestMaxDegree(t *testing.T) {
	c := MustBuild(16, []uint32{0, 0, 0, 5}, []uint32{1, 2, 3, 6})
	if c.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d, want 3", c.MaxDegree())
	}
}
