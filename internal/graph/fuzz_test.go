package graph

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadIndex hammers the on-disk index parser with corrupted inputs: it
// must reject or load them cleanly, never panic, and never produce an
// inconsistent CSR.
func FuzzReadIndex(f *testing.F) {
	// Seed with a valid index file.
	dir := f.TempDir()
	c := MustBuild(64, []uint32{0, 1, 2, 63}, []uint32{1, 2, 3, 0})
	valid := filepath.Join(dir, "seed.gr.index")
	if err := WriteIndex(c, valid); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)/2]) // truncated
	f.Add([]byte{})
	f.Add([]byte("not an index at all"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.gr.index")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Skip()
		}
		loaded, err := ReadIndex(path)
		if err != nil {
			return // rejection is fine
		}
		// Accepted: the CSR must be self-consistent.
		if int64(len(loaded.Degrees)) != int64(loaded.V) {
			t.Fatalf("V=%d but %d degrees", loaded.V, len(loaded.Degrees))
		}
		var sum int64
		for _, d := range loaded.Degrees {
			sum += int64(d)
		}
		if sum != loaded.E {
			t.Fatalf("degree sum %d != E %d", sum, loaded.E)
		}
		if loaded.V > 0 {
			// Offsets must be monotone and end at E.
			prev := int64(-1)
			for v := uint32(0); v < loaded.V; v += 7 {
				off := loaded.Offset(v)
				if off < prev || off > loaded.E {
					t.Fatalf("offset(%d)=%d out of order", v, off)
				}
				prev = off
			}
		}
	})
}

// FuzzReadAdj: the adjacency loader accepts a file exactly when every
// destination it holds is below V. The input is read as a vertex count and
// the adjacency file's bytes; its whole edges are spread over the vertices
// round-robin to make the index.
func FuzzReadAdj(f *testing.F) {
	f.Add([]byte{4, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{4, 100, 0, 0, 0})
	f.Add([]byte{4, 0, 0, 0, 0, 4, 0, 0, 0}) // destination V
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{16, 0xff, 0xff, 0xff, 0xff, 1, 2})

	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 1 || raw[0] == 0 {
			t.Skip()
		}
		n, file := int(raw[0]), raw[1:]
		degrees := make([]uint32, n)
		for i := 0; i < len(file)/EdgeBytes; i++ {
			degrees[i%n]++
		}
		path := filepath.Join(t.TempDir(), "fuzz.gr.adj.0")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Skip()
		}
		c := NewIndexOnly(degrees)
		valid := true
		for i := int64(0); i < c.E; i++ {
			valid = valid && GetEdge(file, i) < c.V
		}
		err := ReadAdj(path, c)
		if (err == nil) != valid {
			t.Fatalf("every destination below %d: %v, ReadAdj error: %v", n, valid, err)
		}
		if err == nil && !bytes.Equal(c.Adj, file[:c.AdjBytes()]) {
			t.Fatal("loaded adjacency differs from the file")
		}
	})
}

// FuzzMergeSegments: merging CSRs must equal Build over their edge lists
// laid end to end, in every array. The input is read as a vertex count, a
// part count and (part, src, dst) byte triples; an edge joins its part in
// input order.
func FuzzMergeSegments(f *testing.F) {
	f.Add([]byte{8, 2, 0, 1, 2, 1, 1, 3, 0, 1, 4, 1, 7, 7})
	f.Add([]byte{1, 1, 0, 0, 0})
	f.Add([]byte{40, 2})  // three empty parts
	big := []byte{200, 3} // four parts, enough edges to cross a page and several groups
	for i := 0; i < 3*EdgesPerPage; i++ {
		big = append(big, byte(i*7), byte(i*i), byte(i*13))
	}
	f.Add(big)

	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 2 || raw[0] == 0 {
			t.Skip()
		}
		n, k := uint32(raw[0]), int(raw[1]%4)+1
		src, dst := make([][]uint32, k), make([][]uint32, k)
		for e := raw[2:]; len(e) >= 3; e = e[3:] {
			p := int(e[0]) % k
			src[p] = append(src[p], uint32(e[1])%n)
			dst[p] = append(dst[p], uint32(e[2])%n)
		}
		parts := make([]*CSR, k)
		var allSrc, allDst []uint32
		for p := range parts {
			parts[p] = MustBuild(n, src[p], dst[p])
			allSrc, allDst = append(allSrc, src[p]...), append(allDst, dst[p]...)
		}
		got, err := MergeSegments(parts...)
		if err != nil {
			t.Fatal(err)
		}
		want := MustBuild(n, allSrc, allDst)
		if got.V != want.V || got.E != want.E || !bytes.Equal(got.Adj, want.Adj) ||
			!reflect.DeepEqual(got.Degrees, want.Degrees) ||
			!reflect.DeepEqual(got.GroupOffsets, want.GroupOffsets) ||
			!reflect.DeepEqual(got.PageBegin, want.PageBegin) {
			t.Fatalf("merge of %d parts over %d vertices differs from Build over the concatenation", k, n)
		}
	})
}
