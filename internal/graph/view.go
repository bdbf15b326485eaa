package graph

import "fmt"

// View overlays a base CSR with a list of sealed delta segments: the
// logical graph is the union of the base edges and every segment's edges,
// all over the same vertex space. Segments are themselves CSRs (typically
// small, built from an EdgeBuffer seal), ordered oldest first; the logical
// adjacency of a vertex is its base edges followed by each segment's edges
// in seal order — exactly the order Flatten materializes and the order the
// engine's multi-source EdgeMap observes.
//
// A View is a read-side overlay, not a mutation primitive: edges enter
// through an EdgeBuffer, seal into a segment, and periodic compaction
// (Flatten) folds the segments back into a single base. The shape follows
// the log-structured delta-segment designs the streaming-graph literature
// uses on top of sort-based ingest (BigSparse-style base builds).
type View struct {
	Base *CSR
	Segs []*CSR
}

// NewView wraps base with no segments.
func NewView(base *CSR) *View { return &View{Base: base} }

// AddSeg appends a sealed segment. The segment must cover the same vertex
// space as the base.
func (v *View) AddSeg(s *CSR) error {
	if s.V != v.Base.V {
		return fmt.Errorf("graph: segment has %d vertices, base has %d", s.V, v.Base.V)
	}
	v.Segs = append(v.Segs, s)
	return nil
}

// V returns the vertex count (shared by base and segments).
func (v *View) V() uint32 { return v.Base.V }

// E returns the total edge count across base and segments.
func (v *View) E() int64 {
	e := v.Base.E
	for _, s := range v.Segs {
		e += s.E
	}
	return e
}

// Degree returns u's total out-degree across base and segments.
func (v *View) Degree(u uint32) uint32 {
	d := v.Base.Degrees[u]
	for _, s := range v.Segs {
		d += s.Degrees[u]
	}
	return d
}

// Neighbors returns u's destination list: base edges first, then each
// segment's edges in seal order (requires in-memory adjacency everywhere).
// Used by reference implementations and tests, like CSR.Neighbors.
func (v *View) Neighbors(u uint32) []uint32 {
	out := v.Base.Neighbors(u)
	for _, s := range v.Segs {
		out = append(out, s.Neighbors(u)...)
	}
	return out
}

// Flatten materializes the overlay as a single CSR: per vertex, the base
// edges followed by each segment's edges in seal order. It is the
// compaction primitive — after Flatten the segments are redundant — and
// the reference graph incremental query results are validated against.
// The base and every segment need in-memory adjacency; an index-only base
// (adjacency left on a device) cannot be compacted in memory and returns
// an error.
func (v *View) Flatten() (*CSR, error) {
	if len(v.Segs) == 0 {
		if v.Base.Adj == nil {
			return nil, fmt.Errorf("graph: Flatten requires in-memory base adjacency")
		}
		return v.Base, nil
	}
	return MergeSegments(append([]*CSR{v.Base}, v.Segs...)...)
}
