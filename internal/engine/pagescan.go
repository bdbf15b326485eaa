package engine

import (
	"blaze/internal/costmodel"
	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/graph"
)

// ForEachActiveEdge walks one fetched 4 kB page: it locates the vertices
// whose edges lie in logical page `logical` via the page→vertex map, skips
// sources outside the frontier, and calls emit(s, d) for every edge of a
// frontier vertex present in the page. It returns the number of vertices
// walked and edges emitted, which callers convert into modeled CPU cost.
//
// This is the common scatter-side inner loop of Blaze, its sync variant,
// and the FlashGraph/Graphene baselines — the systems differ in what emit
// does (bin, message, or inline atomic update), which is precisely the
// design axis the paper analyzes.
func ForEachActiveEdge(c *graph.CSR, f *frontier.VertexSubset, logical int64,
	pageData []byte, emit func(s, d uint32)) (vertices, edges int64) {

	if logical >= c.NumPages() {
		return 0, 0
	}
	firstEdge := logical * graph.EdgesPerPage
	lastEdge := firstEdge + graph.EdgesPerPage
	if lastEdge > c.E {
		lastEdge = c.E
	}
	v := c.PageBegin[logical]
	if v >= c.V {
		return 0, 0
	}
	vBegin := c.Offset(v)
	vEnd := vBegin + int64(c.Degree(v))
	for v < c.V && vBegin < lastEdge {
		if vEnd > firstEdge && f.Has(v) {
			b, e := vBegin, vEnd
			if b < firstEdge {
				b = firstEdge
			}
			if e > lastEdge {
				e = lastEdge
			}
			base := int((b - firstEdge) * graph.EdgeBytes)
			for k := int64(0); k < e-b; k++ {
				emit(v, graph.DecodeEdge(pageData, base+int(k)*graph.EdgeBytes))
			}
			edges += e - b
		}
		vertices++
		v++
		vBegin = vEnd
		if v < c.V {
			vEnd += int64(c.Degree(v))
		}
	}
	return vertices, edges
}

// ApplyPage is the inline-apply step of the engines that update without
// binning (blaze-sync, graphene): it walks one fetched page with
// ForEachActiveEdge and, for every edge whose destination passes cond,
// applies gather(d, scatter(s, d)) on the spot, adding d to out (when out
// is non-nil) if gather activates it. p.Sync() first orders the inline
// updates across procs in virtual time; under Sim procs run one at a time,
// so the unsynchronized user gather is safe while the model charges
// updCost — an atomic-update price — per applied edge.
func ApplyPage(p exec.Proc, c *graph.CSR, f *frontier.VertexSubset, logical int64, pageData []byte,
	scatter func(s, d uint32) float64, gather func(d uint32, v float64) bool, cond func(d uint32) bool,
	out *frontier.VertexSubset, m costmodel.Model, updCost int64) {

	var applied int64
	p.Sync()
	vertices, edges := ForEachActiveEdge(c, f, logical, pageData, func(s, d uint32) {
		if cond(d) {
			if gather(d, scatter(s, d)) && out != nil {
				out.Add(d)
			}
			applied++
		}
	})
	p.Advance(m.PageOverhead + m.VertexOp*vertices + m.EdgeScan*edges + updCost*applied)
}
