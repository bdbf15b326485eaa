package graph

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"blaze/gen"
	"blaze/internal/par"
)

// serialBuild is the one-goroutine counting sort Build replaced, kept as its
// oracle.
func serialBuild(n uint32, src, dst []uint32) (*CSR, error) {
	if len(src) != len(dst) {
		return nil, fmt.Errorf("graph: src/dst length mismatch (%d vs %d)", len(src), len(dst))
	}
	c := &CSR{V: n, E: int64(len(src))}
	c.Degrees = make([]uint32, n)
	for i, s := range src {
		if s >= n {
			return nil, fmt.Errorf("graph: edge %d: source %d out of range %d", i, s, n)
		}
		c.Degrees[s]++
	}
	c.buildGroupOffsets()
	// Place destinations via counting sort.
	cursor := make([]int64, n)
	var off int64
	for v, d := range c.Degrees {
		cursor[v] = off
		off += int64(d)
	}
	c.Adj = make([]byte, c.E*EdgeBytes)
	for i, s := range src {
		d := dst[i]
		if d >= n {
			return nil, fmt.Errorf("graph: edge %d: destination %d out of range %d", i, d, n)
		}
		putEdge(c.Adj, cursor[s], d)
		cursor[s]++
	}
	c.buildPageMap()
	return c, nil
}

// serialTranspose is the one-goroutine Transpose, over serialBuild.
func serialTranspose(c *CSR) *CSR {
	src := make([]uint32, c.E)
	dst := make([]uint32, c.E)
	i := int64(0)
	for v := uint32(0); v < c.V; v++ {
		b, e := c.EdgeRange(v)
		for j := b; j < e; j++ {
			src[i] = GetEdge(c.Adj, j)
			dst[i] = v
			i++
		}
	}
	t, err := serialBuild(c.V, src, dst)
	if err != nil {
		panic(err)
	}
	return t
}

// sameCSR reports the first array in which got and want differ.
func sameCSR(got, want *CSR) error {
	switch {
	case got.V != want.V || got.E != want.E:
		return fmt.Errorf("V/E %d/%d, want %d/%d", got.V, got.E, want.V, want.E)
	case !slices.Equal(got.Degrees, want.Degrees):
		return fmt.Errorf("Degrees differ")
	case !slices.Equal(got.GroupOffsets, want.GroupOffsets):
		return fmt.Errorf("GroupOffsets differ")
	case !bytes.Equal(got.Adj, want.Adj):
		return fmt.Errorf("Adj differs")
	case !slices.Equal(got.PageBegin, want.PageBegin):
		return fmt.Errorf("PageBegin differs")
	}
	return nil
}

// multigraph draws e edges over n vertices with duplicates, self-loops and
// skew; every third vertex is isolated (no edge in or out) when n > 2.
func multigraph(seed uint64, n uint32, e int) (src, dst []uint32) {
	r := gen.NewRNG(seed)
	pick := func() uint32 {
		v := uint32(r.Next() % uint64(n))
		if v%4 == 0 { // skew: a quarter of the draws land on a few vertices
			v %= 8
		}
		if n > 2 && v%3 == 2 {
			v--
		}
		return v
	}
	src, dst = make([]uint32, e), make([]uint32, e)
	for i := range src {
		src[i], dst[i] = pick(), pick()
	}
	return src, dst
}

// checkBuild compares Build and Transpose with the serial oracles.
func checkBuild(t *testing.T, name string, n uint32, src, dst []uint32) {
	t.Helper()
	want, err := serialBuild(n, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Build(n, src, dst)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := sameCSR(got, want); err != nil {
		t.Errorf("%s: Build: %v", name, err)
	}
	if err := sameCSR(got.Transpose(), serialTranspose(want)); err != nil {
		t.Errorf("%s: Transpose: %v", name, err)
	}
}

// TestBuildMatchesSerial: Build and Transpose equal the serial counting sort
// in every array, below and well above the chunk cutoff, at GOMAXPROCS 1, 2,
// 3 and 8.
func TestBuildMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const big = 5 * par.MinChunk
	for _, c := range []struct {
		n uint32
		e int
	}{
		{1, 0}, {100, 0}, // no edges
		{3000, 1000},            // below the cutoff
		{1000, big},             // many chunks, small histograms
		{100_000, big},          // histograms cap the chunks
		{big, big},              // one chunk: V·2 > E
		{7, 2*par.MinChunk + 3}, // every edge among seven vertices
	} {
		src, dst := multigraph(uint64(c.n)*31+uint64(c.e), c.n, c.e)
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			checkBuild(t, fmt.Sprintf("V=%d E=%d GOMAXPROCS=%d", c.n, c.e, procs), c.n, src, dst)
		}
	}
}

// TestBuildAnyChunkCount drives the kernels below the cutoff at chunk
// counts that leave uneven and empty chunks.
func TestBuildAnyChunkCount(t *testing.T) {
	for _, e := range []int{0, 1, 5, 3 * EdgesPerPage} {
		src, dst := multigraph(uint64(e), 300, e)
		want, err := serialBuild(300, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		wantT := serialTranspose(want)
		for k := 1; k <= 8; k++ {
			got, err := build(300, src, dst, k)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameCSR(got, want); err != nil {
				t.Errorf("E=%d as %d chunks: build: %v", e, k, err)
			}
			if err := sameCSR(want.transpose(k), wantT); err != nil {
				t.Errorf("E=%d as %d chunks: transpose: %v", e, k, err)
			}
		}
	}
}

// TestBuildErrorParity: with bad endpoints planted in different chunks the
// error is the serial one — the first bad source wins over any bad
// destination, and the lowest index wins within each.
func TestBuildErrorParity(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	const n = 100
	e := 4 * par.MinChunk
	chunk := func(w int) int { return w*par.MinChunk + 17 } // an edge inside chunk w of 4
	for _, c := range []struct {
		name           string
		badSrc, badDst []int
	}{
		{"source after destination", []int{chunk(3)}, []int{chunk(0)}},
		{"two sources", []int{chunk(2), chunk(1)}, nil},
		{"two destinations", nil, []int{chunk(3), chunk(1)}},
		{"source and destination in one chunk", []int{chunk(2) + 5}, []int{chunk(2)}},
		{"everything everywhere", []int{chunk(1), chunk(3)}, []int{chunk(0), chunk(2)}},
	} {
		src, dst := multigraph(9, n, e)
		for i, v := range c.badSrc {
			src[v] = n + uint32(i)
		}
		for i, v := range c.badDst {
			dst[v] = n + 10 + uint32(i)
		}
		if k := par.Chunks(int64(e), n); k != 4 {
			t.Fatalf("%d edges run as %d chunks, want 4", e, k)
		}
		_, want := serialBuild(n, src, dst)
		_, got := Build(n, src, dst)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%s: error %v, want %v", c.name, got, want)
		}
	}
}

// TestBuildInlineAllocates: below the cutoff Build and Transpose allocate
// exactly what the serial bodies did.
func TestBuildInlineAllocates(t *testing.T) {
	src, dst := multigraph(5, 500, 4000)
	c := MustBuild(500, src, dst)
	for _, f := range []struct {
		name      string
		got, want func()
	}{
		{"Build", func() { Build(500, src, dst) }, func() { serialBuild(500, src, dst) }},
		{"Transpose", func() { c.Transpose() }, func() { serialTranspose(c) }},
	} {
		got, want := testing.AllocsPerRun(20, f.got), testing.AllocsPerRun(20, f.want)
		if got != want {
			t.Errorf("%s allocates %.0f times, the serial body %.0f", f.name, got, want)
		}
	}
}

// FuzzBuild: the chunked build equals the serial one — every array, or the
// same error — at every chunk count. The input is read as a vertex count, a
// chunk count and (src, dst) byte pairs; endpoints past the vertex count
// stay, to exercise the error path.
func FuzzBuild(f *testing.F) {
	f.Add([]byte{8, 2, 0, 1, 2, 1, 1, 3, 7, 7})
	f.Add([]byte{1, 7})
	f.Add([]byte{4, 3, 0, 1, 9, 1, 2, 200, 3, 0})
	big := []byte{200, 3}
	for i := 0; i < 3*EdgesPerPage; i++ {
		big = append(big, byte(i*7), byte(i*13%199))
	}
	f.Add(big)

	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 2 {
			t.Skip()
		}
		n, k := uint32(raw[0]), int(raw[1]%8)+1
		var src, dst []uint32
		for e := raw[2:]; len(e) >= 2; e = e[2:] {
			src, dst = append(src, uint32(e[0])), append(dst, uint32(e[1]))
		}
		want, wantErr := serialBuild(n, src, dst)
		got, err := build(n, src, dst, k)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%d chunks: error %v, serial %v", k, err, wantErr)
		}
		if err != nil {
			return
		}
		if err := sameCSR(got, want); err != nil {
			t.Fatalf("%d chunks: build: %v", k, err)
		}
		if err := sameCSR(want.transpose(k), serialTranspose(want)); err != nil {
			t.Fatalf("%d chunks: transpose: %v", k, err)
		}
	})
}
