package graph

import "fmt"

// EdgeBuffer is the in-memory write buffer of a dynamic graph: edge
// insertions accumulate here in arrival order until the owner seals the
// buffer into an immutable sorted segment (a small CSR over the same
// vertex space, edges in (source, arrival) order — the order Build
// produces). The logical graph is the base followed by its sealed
// segments, oldest first: a vertex's adjacency is its base edges, then
// each segment's in seal order. The owner merges adjacent segments as they
// pile up and periodic compaction folds them back into the base, both
// through MergeSegments, which materializes exactly that order. The shape
// follows the log-structured delta-segment designs the streaming-graph
// literature uses on top of sort-based ingest.
//
// EdgeBuffer is not safe for concurrent use; the owner serializes Add and
// Seal (the engine's Dynamic wrapper does so on the coordinator proc).
type EdgeBuffer struct {
	n        uint32
	src, dst []uint32
}

// NewEdgeBuffer returns an empty buffer over n vertices.
func NewEdgeBuffer(n uint32) *EdgeBuffer { return &EdgeBuffer{n: n} }

// Add appends one edge, validating both endpoints against the vertex
// space.
func (b *EdgeBuffer) Add(s, d uint32) error {
	if s >= b.n {
		return fmt.Errorf("graph: insert source %d out of range %d", s, b.n)
	}
	if d >= b.n {
		return fmt.Errorf("graph: insert destination %d out of range %d", d, b.n)
	}
	b.src = append(b.src, s)
	b.dst = append(b.dst, d)
	return nil
}

// Len returns the buffered edge count.
func (b *EdgeBuffer) Len() int { return len(b.src) }

// Edges returns the buffered edge list in arrival order. The slices alias
// the buffer until the next Seal, which lets go of them: a caller that
// takes them just before sealing owns them afterwards.
func (b *EdgeBuffer) Edges() (src, dst []uint32) { return b.src, b.dst }

// Seal builds the forward segment from the buffered edges — and, when
// mirror is set, its transpose — and resets the buffer. The forward
// segment keeps arrival order within each source bucket; the transpose
// mirrors every edge d→s so an undirected traversal (WCC) sees insertions
// from both sides. Sealing an empty buffer returns (nil, nil).
func (b *EdgeBuffer) Seal(mirror bool) (fwd, tr *CSR) {
	if len(b.src) == 0 {
		return nil, nil
	}
	// Endpoints were validated by Add, so Build cannot fail.
	fwd = MustBuild(b.n, b.src, b.dst)
	if mirror {
		tr = MustBuild(b.n, b.dst, b.src)
	}
	b.src, b.dst = nil, nil
	return fwd, tr
}

// MergeSegments concatenates CSRs over one vertex space into a single CSR:
// a vertex's adjacency is its edges in parts[0], then those in parts[1],
// and so on — byte for byte what Build produces from the parts' edge lists
// laid end to end. It is the one concat-merge behind both tiered sealing
// (adjacent delta segments, older first) and compaction (base, then every
// segment): one pass over the vertices that advances a running offset per
// part, so the cost is O(V·len(parts) + E) with no per-vertex index
// lookups. Every part needs in-memory adjacency.
func MergeSegments(parts ...*CSR) (*CSR, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("graph: merge of no segments")
	}
	c := &CSR{V: parts[0].V}
	for i, p := range parts {
		if p.V != c.V {
			return nil, fmt.Errorf("graph: merge: part %d has %d vertices, part 0 has %d", i, p.V, c.V)
		}
		if p.Adj == nil {
			return nil, fmt.Errorf("graph: merge: part %d has no in-memory adjacency", i)
		}
		c.E += p.E
	}
	c.Degrees = make([]uint32, c.V)
	c.Adj = make([]byte, c.E*EdgeBytes)
	from := make([]int64, len(parts)) // each part's running byte offset
	var to int64
	for u := range c.Degrees {
		for i, p := range parts {
			d := p.Degrees[u]
			if d == 0 {
				continue
			}
			nb := int64(d) * EdgeBytes
			copy(c.Adj[to:to+nb], p.Adj[from[i]:from[i]+nb])
			from[i] += nb
			to += nb
			c.Degrees[u] += d
		}
	}
	c.buildGroupOffsets()
	c.buildPageMap()
	return c, nil
}

// MustMergeSegments is MergeSegments for parts that are valid by
// construction — sealed segments and the base they overlay share one
// vertex space and keep their adjacency in memory; it panics on the errors
// MergeSegments reports, which there indicate a programming bug.
func MustMergeSegments(parts ...*CSR) *CSR {
	c, err := MergeSegments(parts...)
	if err != nil {
		panic(err)
	}
	return c
}
