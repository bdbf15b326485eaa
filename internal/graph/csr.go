// Package graph implements Blaze's on-disk graph representation:
// Compressed Sparse Row adjacency packed into 4 kB pages, the
// indirection-based in-memory index (§IV-F, Fig. 6: sixteen 4-byte degrees
// per cache line plus one offset per group, ≈4.5 B/vertex), and the
// page→vertex map that lets scatter threads locate vertex boundaries inside
// a fetched page (8 B/page in the paper; 4 B/page here since the end vertex
// is derived from the next page's begin vertex).
package graph

import (
	"fmt"
	"sort"

	"blaze/internal/par"
)

// PageSize is the on-disk page granularity (must match ssd.PageSize).
const PageSize = 4096

// EdgeBytes is the packed size of one edge (a uint32 destination ID).
const EdgeBytes = 4

// EdgesPerPage is the number of edges in one full page.
const EdgesPerPage = PageSize / EdgeBytes

// GroupSize is the number of degrees per index cache line (Fig. 6).
const GroupSize = 16

// CSR is a graph in Compressed Sparse Row form. Adj holds the packed
// adjacency (little-endian uint32 destination IDs in offset order); it is
// present for in-memory graphs and nil for graphs whose adjacency lives
// only on a device array.
type CSR struct {
	V uint32
	E int64
	// Degrees[v] is the out-degree of v.
	Degrees []uint32
	// GroupOffsets[g] is the edge offset of vertex g*GroupSize. Length
	// ceil(V/GroupSize)+1; the final entry equals E.
	GroupOffsets []uint64
	// Adj is the packed adjacency, length E*EdgeBytes (optional).
	Adj []byte
	// PageBegin[p] is the vertex owning the first edge slot of logical
	// page p. Length NumPages()+1; the final entry is V.
	PageBegin []uint32
}

// Build constructs a CSR with adjacency from an edge list over n vertices.
// It is deterministic: edges keep their input order within each source
// bucket (counting sort). A length mismatch between src and dst or an
// endpoint outside [0, n) returns an error (the PR 2 error-propagation
// contract: malformed input is a runtime condition, not a programmer
// panic); the error names the edge a serial scan meets first, checking
// every source before any destination.
//
// Long edge lists are sorted as contiguous chunks on up to GOMAXPROCS
// goroutines: each chunk counts its sources into its own histogram, one
// prefix pass starts chunk w's cursor for v after the edges chunks 0..w-1
// hold for v, and the chunks place their edges in parallel. Arrival order
// within each bucket is therefore kept, and the CSR is the same at every
// GOMAXPROCS.
func Build(n uint32, src, dst []uint32) (*CSR, error) {
	if len(src) != len(dst) {
		return nil, fmt.Errorf("graph: src/dst length mismatch (%d vs %d)", len(src), len(dst))
	}
	return build(n, src, dst, par.Chunks(int64(len(src)), int64(n)))
}

// build is Build as k chunks.
func build(n uint32, src, dst []uint32, k int) (*CSR, error) {
	c := &CSR{V: n, E: int64(len(src)), Degrees: make([]uint32, n)}
	b := csrBuild{n: n, k: k, src: src, dst: dst, counts: c.Degrees}
	if k > 1 {
		b.counts = make([]uint32, k*int(n))
	}
	if i := par.Run(k, b, csrBuild.count); i >= 0 {
		return nil, fmt.Errorf("graph: edge %d: source %d out of range %d", i, src[i], n)
	}
	b.cursor = make([]int64, k*int(n))
	b.prefix(c.Degrees)
	c.buildGroupOffsets()
	b.adj = make([]byte, c.E*EdgeBytes)
	if i := par.Run(k, b, csrBuild.place); i >= 0 {
		return nil, fmt.Errorf("graph: edge %d: destination %d out of range %d", i, dst[i], n)
	}
	c.Adj = b.adj
	c.buildPageMap()
	return c, nil
}

// csrBuild is one counting sort, copied to every chunk. Chunk w owns row w
// of counts and of cursor, n entries each; a single chunk counts straight
// into the degree array.
type csrBuild struct {
	n        uint32
	k        int // chunks
	src, dst []uint32
	counts   []uint32 // each chunk's source counts
	cursor   []int64  // the offset each chunk's next edge from each source goes to
	adj      []byte
}

// count tallies chunk w's sources and returns the index of its first
// source outside [0, n), or -1.
func (b csrBuild) count(w int) int64 {
	lo, hi := par.Bounds(int64(len(b.src)), b.k, w)
	row := b.counts[w*int(b.n) : (w+1)*int(b.n)]
	for i, s := range b.src[lo:hi] {
		if s >= b.n {
			return lo + int64(i)
		}
		row[s]++
	}
	return -1
}

// prefix turns the counts into cursors, vertex by vertex and chunk by chunk
// within a vertex, and stores each vertex's degree. A single chunk's
// cursors are the plain prefix sum of the degrees it counted; walking the
// one row per vertex instead costs a quarter more on a delta segment's
// seal, whose builds are a few thousand edges over every vertex.
func (b csrBuild) prefix(degrees []uint32) {
	cursor, n := b.cursor, len(degrees)
	var off int64
	if b.k == 1 {
		for v, d := range degrees {
			cursor[v] = off
			off += int64(d)
		}
		return
	}
	counts := b.counts[:len(cursor)]
	for v := range degrees {
		start := off
		for w := v; w < len(cursor); w += n {
			cursor[w] = off
			off += int64(counts[w])
		}
		degrees[v] = uint32(off - start)
	}
}

// place writes chunk w's destinations at its cursors and returns the index
// of its first destination outside [0, n), or -1.
func (b csrBuild) place(w int) int64 {
	lo, hi := par.Bounds(int64(len(b.src)), b.k, w)
	row := b.cursor[w*int(b.n) : (w+1)*int(b.n)]
	dst := b.dst[lo:hi]
	for i, s := range b.src[lo:hi] {
		d := dst[i]
		if d >= b.n {
			return lo + int64(i)
		}
		putEdge(b.adj, row[s], d)
		row[s]++
	}
	return -1
}

// MustBuild is Build for edge lists that are valid by construction
// (generated presets, partitions of an existing CSR, test fixtures); it
// panics on the errors Build reports, which there indicate a programming
// bug rather than bad input.
func MustBuild(n uint32, src, dst []uint32) *CSR {
	c, err := Build(n, src, dst)
	if err != nil {
		panic(err)
	}
	return c
}

// NewIndexOnly constructs a CSR without adjacency from a degree array
// (used by the file loader: the adjacency stays on the devices).
func NewIndexOnly(degrees []uint32) *CSR {
	c := &CSR{V: uint32(len(degrees)), Degrees: degrees}
	for _, d := range degrees {
		c.E += int64(d)
	}
	c.buildGroupOffsets()
	c.buildPageMap()
	return c
}

func (c *CSR) buildGroupOffsets() {
	groups := (int(c.V) + GroupSize - 1) / GroupSize
	c.GroupOffsets = make([]uint64, groups+1)
	var off uint64
	for v := uint32(0); v < c.V; v++ {
		if v%GroupSize == 0 {
			c.GroupOffsets[v/GroupSize] = off
		}
		off += uint64(c.Degrees[v])
	}
	c.GroupOffsets[groups] = off
	if int64(off) != c.E {
		c.E = int64(off)
	}
}

// buildPageMap computes PageBegin by walking offsets once.
func (c *CSR) buildPageMap() {
	pages := c.NumPages()
	c.PageBegin = make([]uint32, pages+1)
	v := uint32(0)
	var vEnd int64 // end edge offset of v
	if c.V > 0 {
		vEnd = int64(c.Degrees[0])
	}
	for p := int64(0); p < pages; p++ {
		firstEdge := p * EdgesPerPage
		// Advance v until its range covers firstEdge.
		for v < c.V && vEnd <= firstEdge {
			v++
			if v < c.V {
				vEnd += int64(c.Degrees[v])
			}
		}
		if v >= c.V {
			c.PageBegin[p] = c.V
		} else {
			c.PageBegin[p] = v
		}
	}
	c.PageBegin[pages] = c.V
}

// NumPages returns the number of logical adjacency pages.
func (c *CSR) NumPages() int64 {
	return (c.E*EdgeBytes + PageSize - 1) / PageSize
}

// Degree returns the out-degree of v.
func (c *CSR) Degree(v uint32) uint32 { return c.Degrees[v] }

// Offset returns the edge offset of v using the indirection index: one
// group-offset lookup plus at most GroupSize-1 degree additions, exactly
// the Fig. 6 access pattern.
func (c *CSR) Offset(v uint32) int64 {
	g := v / GroupSize
	off := c.GroupOffsets[g]
	for u := g * GroupSize; u < v; u++ {
		off += uint64(c.Degrees[u])
	}
	return int64(off)
}

// EdgeRange returns the [begin,end) edge offsets of v.
func (c *CSR) EdgeRange(v uint32) (int64, int64) {
	b := c.Offset(v)
	return b, b + int64(c.Degrees[v])
}

// PageRange returns the [first,last] logical pages holding v's edges, and
// ok=false when v has no edges.
func (c *CSR) PageRange(v uint32) (first, last int64, ok bool) {
	b, e := c.EdgeRange(v)
	if b == e {
		return 0, 0, false
	}
	return b * EdgeBytes / PageSize, (e*EdgeBytes - 1) / PageSize, true
}

// Transpose returns the reversed graph (requires in-memory adjacency). Each
// destination's bucket lists its sources in forward-scan order. Long graphs
// fill the reversed edge list as vertex ranges on up to GOMAXPROCS
// goroutines before the chunked Build.
func (c *CSR) Transpose() *CSR {
	return c.transpose(par.Chunks(c.E, 0))
}

// transpose is Transpose with the reversed edge list filled as k chunks.
func (c *CSR) transpose(k int) *CSR {
	if c.Adj == nil {
		panic("graph: Transpose on index-only CSR")
	}
	f := reverse{c: c, k: k, src: make([]uint32, c.E), dst: make([]uint32, c.E)}
	par.Run(k, f, reverse.fill)
	// Endpoints come from a valid CSR, so Build cannot fail.
	return MustBuild(c.V, f.src, f.dst)
}

// reverse fills a CSR's reversed edge list, copied to every chunk.
type reverse struct {
	c        *CSR
	k        int // chunks
	src, dst []uint32
}

// fill writes the reversed edges of chunk w's vertices: those whose edges
// start in the chunk's share of the edge offsets. Its first edge goes to
// the first vertex's offset, so chunks write disjoint ranges.
func (f reverse) fill(w int) int64 {
	lo, hi := par.Bounds(f.c.E, f.k, w)
	v, end := f.c.firstVertexAt(lo), f.c.firstVertexAt(hi)
	for i := f.c.Offset(v); v < end; v++ {
		for range f.c.Degrees[v] {
			f.src[i] = GetEdge(f.c.Adj, i)
			f.dst[i] = v
			i++
		}
	}
	return -1
}

// firstVertexAt returns the first vertex whose edges start at or after
// edge offset off (V when there is none).
func (c *CSR) firstVertexAt(off int64) uint32 {
	return uint32(sort.Search(int(c.V), func(v int) bool { return c.Offset(uint32(v)) >= off }))
}

// IndexBytes returns the in-memory metadata footprint: degrees, group
// offsets, and the page→vertex map (Figure 12 accounting).
func (c *CSR) IndexBytes() int64 {
	return int64(len(c.Degrees))*4 + int64(len(c.GroupOffsets))*8 + int64(len(c.PageBegin))*4
}

// AdjBytes returns the on-disk adjacency size.
func (c *CSR) AdjBytes() int64 { return c.E * EdgeBytes }

// TotalBytes returns the dataset size used as Figure 12's denominator
// (index file + adjacency file).
func (c *CSR) TotalBytes() int64 {
	return c.AdjBytes() + int64(len(c.Degrees))*4
}

// MaxDegree returns the largest out-degree.
func (c *CSR) MaxDegree() uint32 {
	var m uint32
	for _, d := range c.Degrees {
		if d > m {
			m = d
		}
	}
	return m
}

// HotEdgeFraction returns the fraction of edges whose destination is among
// the top `top` fraction of vertices by in-degree. The cost model charges
// cache-line contention on exactly this fraction of atomic updates. dstDeg
// is the in-degree array (the transpose's Degrees).
func HotEdgeFraction(dstDeg []uint32, top float64) float64 {
	if len(dstDeg) == 0 {
		return 0
	}
	k := int(float64(len(dstDeg)) * top)
	if k < 1 {
		k = 1
	}
	sorted := make([]uint32, len(dstDeg))
	copy(sorted, dstDeg)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	var total, hot int64
	for _, d := range dstDeg {
		total += int64(d)
	}
	for _, d := range sorted[:k] {
		hot += int64(d)
	}
	if total == 0 {
		return 0
	}
	return float64(hot) / float64(total)
}

// GetEdge reads the destination ID at edge offset i from packed adjacency.
func GetEdge(adj []byte, i int64) uint32 {
	o := i * EdgeBytes
	return uint32(adj[o]) | uint32(adj[o+1])<<8 | uint32(adj[o+2])<<16 | uint32(adj[o+3])<<24
}

// putEdge writes the destination ID at edge offset i.
func putEdge(adj []byte, i int64, d uint32) {
	o := i * EdgeBytes
	adj[o] = byte(d)
	adj[o+1] = byte(d >> 8)
	adj[o+2] = byte(d >> 16)
	adj[o+3] = byte(d >> 24)
}

// DecodeEdge reads a destination ID from a page buffer at byte offset o.
func DecodeEdge(buf []byte, o int) uint32 {
	return uint32(buf[o]) | uint32(buf[o+1])<<8 | uint32(buf[o+2])<<16 | uint32(buf[o+3])<<24
}
