package graph

import (
	"path/filepath"
	"testing"
	"testing/quick"

	"blaze/gen"
)

// tinyGraph builds a small hand-checkable graph:
//
//	0 -> 1, 2
//	1 -> 2
//	2 -> 0
//	3 -> (none)
//	4 -> 0, 1, 2, 3
func tinyGraph() *CSR {
	src := []uint32{0, 0, 1, 2, 4, 4, 4, 4}
	dst := []uint32{1, 2, 2, 0, 0, 1, 2, 3}
	return MustBuild(5, src, dst)
}

func TestBuildDegreesAndOffsets(t *testing.T) {
	c := tinyGraph()
	wantDeg := []uint32{2, 1, 1, 0, 4}
	for v, want := range wantDeg {
		if c.Degree(uint32(v)) != want {
			t.Errorf("Degree(%d) = %d, want %d", v, c.Degree(uint32(v)), want)
		}
	}
	wantOff := []int64{0, 2, 3, 4, 4}
	for v, want := range wantOff {
		if got := c.Offset(uint32(v)); got != want {
			t.Errorf("Offset(%d) = %d, want %d", v, got, want)
		}
	}
	if c.E != 8 {
		t.Errorf("E = %d, want 8", c.E)
	}
}

// neighbors lists v's destinations in adjacency order.
func neighbors(c *CSR, v uint32) []uint32 {
	out := make([]uint32, 0, c.Degree(v))
	for i := c.Offset(v); i < c.Offset(v)+int64(c.Degree(v)); i++ {
		out = append(out, GetEdge(c.Adj, i))
	}
	return out
}

// TestNeighborsPreserveOrder: Build keeps each vertex's destinations in
// input order.
func TestNeighborsPreserveOrder(t *testing.T) {
	c := tinyGraph()
	want := map[uint32][]uint32{
		0: {1, 2}, 1: {2}, 2: {0}, 3: {}, 4: {0, 1, 2, 3},
	}
	for v, w := range want {
		got := neighbors(c, v)
		if len(got) != len(w) {
			t.Fatalf("Neighbors(%d) = %v, want %v", v, got, w)
		}
		for i := range w {
			if got[i] != w[i] {
				t.Fatalf("Neighbors(%d) = %v, want %v", v, got, w)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	p := gen.Preset{Kind: gen.KindRMAT, A: 0.5, B: 0.2, C: 0.2, Seed: 9, V: 256, E: 2000}
	src, dst := p.Generate()
	c := MustBuild(p.V, src, dst)
	tt := c.Transpose().Transpose()
	if tt.V != c.V || tt.E != c.E {
		t.Fatalf("double transpose shape (%d,%d) != (%d,%d)", tt.V, tt.E, c.V, c.E)
	}
	// Compare sorted adjacency per vertex (transpose reorders within rows).
	for v := uint32(0); v < c.V; v++ {
		a, b := neighbors(c, v), neighbors(tt, v)
		if len(a) != len(b) {
			t.Fatalf("vertex %d degree changed: %d vs %d", v, len(a), len(b))
		}
		ca := map[uint32]int{}
		for _, x := range a {
			ca[x]++
		}
		for _, x := range b {
			ca[x]--
		}
		for k, n := range ca {
			if n != 0 {
				t.Fatalf("vertex %d neighbor multiset differs at %d", v, k)
			}
		}
	}
}

func TestTransposeDegreeSum(t *testing.T) {
	c := tinyGraph()
	tr := c.Transpose()
	if tr.E != c.E {
		t.Errorf("transpose E = %d, want %d", tr.E, c.E)
	}
	// In-degree of 2 is 3 (from 0, 1, 4).
	if tr.Degree(2) != 3 {
		t.Errorf("in-degree(2) = %d, want 3", tr.Degree(2))
	}
}

// TestOffsetAgainstPrefixSum property-checks the indirection index against
// a straightforward prefix sum on random degree arrays.
func TestOffsetAgainstPrefixSum(t *testing.T) {
	f := func(rawDeg []uint8) bool {
		if len(rawDeg) == 0 {
			return true
		}
		deg := make([]uint32, len(rawDeg))
		for i, d := range rawDeg {
			deg[i] = uint32(d % 9)
		}
		c := NewIndexOnly(deg)
		var want int64
		for v := 0; v < len(deg); v++ {
			if c.Offset(uint32(v)) != want {
				return false
			}
			want += int64(deg[v])
		}
		return c.E == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPageMapInvariants property-checks PageBegin: the begin vertex of a
// page must own (or precede) the page's first edge, and every edge in page
// p must belong to a vertex in [PageBegin[p], PageBegin[p+1]].
func TestPageMapInvariants(t *testing.T) {
	f := func(rawDeg []uint16, seed uint8) bool {
		if len(rawDeg) == 0 {
			return true
		}
		deg := make([]uint32, len(rawDeg))
		for i, d := range rawDeg {
			deg[i] = uint32(d % 3000) // some vertices span multiple pages
		}
		c := NewIndexOnly(deg)
		pages := c.NumPages()
		if int64(len(c.PageBegin)) != pages+1 {
			return false
		}
		for p := int64(0); p < pages; p++ {
			bv := c.PageBegin[p]
			if bv > c.V {
				return false
			}
			if bv == c.V {
				continue // page past the last edge (padding)
			}
			b, e := c.EdgeRange(bv)
			firstEdge := p * EdgesPerPage
			// bv's range must cover the first edge of the page.
			if !(b <= firstEdge && firstEdge < e) {
				return false
			}
			// Monotone.
			if c.PageBegin[p+1] < bv {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPageRange(t *testing.T) {
	// Vertex with 3000 edges starting at offset 0 spans pages 0-2.
	deg := make([]uint32, 16)
	deg[0] = 3000
	deg[1] = 100
	c := NewIndexOnly(deg)
	first, last, ok := c.PageRange(0)
	if !ok || first != 0 || last != 2 {
		t.Errorf("PageRange(0) = (%d,%d,%v), want (0,2,true)", first, last, ok)
	}
	first, last, ok = c.PageRange(1)
	// Vertex 1's edges are [3000,3100): bytes [12000,12400) -> pages 2-3.
	if !ok || first != 2 || last != 3 {
		t.Errorf("PageRange(1) = (%d,%d,%v), want (2,3,true)", first, last, ok)
	}
	if _, _, ok := c.PageRange(2); ok {
		t.Error("PageRange of zero-degree vertex reported ok")
	}
}

func TestHotEdgeFraction(t *testing.T) {
	// 1000 vertices; vertex 0 has in-degree 500, the rest 1 each.
	deg := make([]uint32, 1000)
	deg[0] = 500
	for i := 1; i < 1000; i++ {
		deg[i] = 1
	}
	got := HotEdgeFraction(deg, 0.001)
	want := 500.0 / 1499.0
	if got < want-0.01 || got > want+0.01 {
		t.Errorf("HotEdgeFraction = %.3f, want %.3f", got, want)
	}
	if HotEdgeFraction(nil, 0.001) != 0 {
		t.Error("empty in-degrees should give 0")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p := gen.Preset{Kind: gen.KindRMAT, A: 0.55, B: 0.2, C: 0.2, Seed: 3, V: 512, E: 5000}
	src, dst := p.Generate()
	c := MustBuild(p.V, src, dst)
	base := filepath.Join(dir, "test")
	if err := WriteFiles(c, c.Transpose(), base); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadIndex(base + ".gr.index")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.V != c.V || loaded.E != c.E {
		t.Fatalf("loaded shape (%d,%d), want (%d,%d)", loaded.V, loaded.E, c.V, c.E)
	}
	for v := uint32(0); v < c.V; v++ {
		if loaded.Degree(v) != c.Degree(v) {
			t.Fatalf("degree(%d) mismatch after round trip", v)
		}
	}
	f, size, err := OpenAdj(base+".gr.adj.0", loaded)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if size != c.AdjBytes() {
		t.Errorf("adj size = %d, want %d", size, c.AdjBytes())
	}
	// Spot-check adjacency bytes through the file.
	buf := make([]byte, c.AdjBytes())
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < c.E; i++ {
		if GetEdge(buf, i) != GetEdge(c.Adj, i) {
			t.Fatalf("edge %d differs after round trip", i)
		}
	}
	// Transpose index loads too.
	if _, err := ReadIndex(base + ".tgr.index"); err != nil {
		t.Fatal(err)
	}
}

func TestReadIndexRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.gr.index")
	if err := WriteIndex(tinyGraph(), path); err != nil {
		t.Fatal(err)
	}
	// Corrupt the magic.
	data := make([]byte, 8)
	f, err := openRW(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := ReadIndex(path); err == nil {
		t.Error("ReadIndex accepted corrupted magic")
	}
}

func TestIndexBytesAccounting(t *testing.T) {
	c := tinyGraph()
	want := int64(5*4) + int64(len(c.GroupOffsets))*8 + int64(len(c.PageBegin))*4
	if c.IndexBytes() != want {
		t.Errorf("IndexBytes = %d, want %d", c.IndexBytes(), want)
	}
}

func TestGetPutEdge(t *testing.T) {
	adj := make([]byte, 16)
	vals := []uint32{0, 1, 0xDEADBEEF, 0xFFFFFFFF}
	for i, v := range vals {
		putEdge(adj, int64(i), v)
	}
	for i, v := range vals {
		if GetEdge(adj, int64(i)) != v {
			t.Errorf("edge %d round trip failed", i)
		}
		if DecodeEdge(adj, i*4) != v {
			t.Errorf("DecodeEdge %d failed", i)
		}
	}
}
