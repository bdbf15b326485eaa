package algo

import "blaze/internal/graph"

// This file holds serial in-memory reference implementations used by tests
// and by EXPERIMENTS.md sanity checks to validate every out-of-core engine
// bit-for-bit (or within floating-point tolerance where summation order
// differs).

// RefBFSDepth returns BFS depths from src (-1 = unreachable) computed
// serially over in-memory adjacency.
func RefBFSDepth(c *graph.CSR, src uint32) []int32 {
	depth := make([]int32, c.V)
	for i := range depth {
		depth[i] = -1
	}
	depth[src] = 0
	queue := []uint32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		b, e := c.EdgeRange(v)
		for i := b; i < e; i++ {
			d := graph.GetEdge(c.Adj, i)
			if depth[d] == -1 {
				depth[d] = depth[v] + 1
				queue = append(queue, d)
			}
		}
	}
	return depth
}

// CheckParents validates a parent array against a reference depth array:
// every reachable vertex must have a parent one level above it connected by
// a real edge; unreachable vertices must have parent -1. It returns the
// first violated vertex and false, or (0, true). One pass over the edges
// marks every vertex whose claimed parent has an edge to it, so the check
// is O(V+E) whatever the degrees.
func CheckParents(c *graph.CSR, src uint32, parent []int64, depth []int32) (uint32, bool) {
	edge := make([]bool, c.V) // edge[v]: parent[v] -> v is an edge of c
	for u := uint32(0); u < c.V; u++ {
		b, e := c.EdgeRange(u)
		for i := b; i < e; i++ {
			if d := graph.GetEdge(c.Adj, i); parent[d] == int64(u) {
				edge[d] = true
			}
		}
	}
	for v := uint32(0); v < c.V; v++ {
		switch {
		case v == src:
			if parent[v] != int64(src) {
				return v, false
			}
		case depth[v] == -1:
			if parent[v] != -1 {
				return v, false
			}
		default:
			pv := parent[v]
			if pv < 0 || pv >= int64(c.V) || depth[pv] != depth[v]-1 || !edge[v] {
				return v, false
			}
		}
	}
	return 0, true
}

// RefPageRankDelta runs the same PageRank-delta recurrence serially. The
// result is comparable to PageRank() within floating-point reassociation
// error.
func RefPageRankDelta(c *graph.CSR, eps float64, maxIter int) []float64 {
	n := c.V
	const damping = 0.85
	rank := make([]float64, n)
	nghSum := make([]float64, n)
	delta := make([]float64, n)
	active := make([]bool, n)
	for i := range delta {
		delta[i] = 1.0 / float64(n)
		rank[i] = delta[i]
		active[i] = true
	}
	for iter := 0; maxIter == 0 || iter < maxIter; iter++ {
		received := make([]bool, n)
		any := false
		for s := uint32(0); s < n; s++ {
			if !active[s] || c.Degree(s) == 0 {
				continue
			}
			contrib := delta[s] / float64(c.Degree(s))
			b, e := c.EdgeRange(s)
			for i := b; i < e; i++ {
				d := graph.GetEdge(c.Adj, i)
				nghSum[d] += contrib
				received[d] = true
			}
		}
		for i := range active {
			active[i] = false
		}
		for i := uint32(0); i < n; i++ {
			if !received[i] {
				continue
			}
			delta[i] = nghSum[i] * damping
			nghSum[i] = 0
			if abs(delta[i]) > eps*rank[i] {
				rank[i] += delta[i]
				active[i] = true
				any = true
			} else {
				delta[i] = 0
			}
		}
		if !any {
			break
		}
	}
	return rank
}

// RefWCC computes weakly connected components with union-find over the
// edge list (direction-blind), returning canonical labels.
func RefWCC(c *graph.CSR) []uint32 {
	parent := make([]uint32, c.V)
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b uint32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra < rb {
				parent[rb] = ra
			} else {
				parent[ra] = rb
			}
		}
	}
	for v := uint32(0); v < c.V; v++ {
		b, e := c.EdgeRange(v)
		for i := b; i < e; i++ {
			union(v, graph.GetEdge(c.Adj, i))
		}
	}
	out := make([]uint32, c.V)
	for v := uint32(0); v < c.V; v++ {
		out[v] = find(v)
	}
	return out
}

// SamePartition reports whether two label arrays induce the same partition
// of vertices into groups.
func SamePartition(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[uint32]uint32{}
	rev := map[uint32]uint32{}
	for i := range a {
		if x, ok := fwd[a[i]]; ok {
			if x != b[i] {
				return false
			}
		} else {
			fwd[a[i]] = b[i]
		}
		if x, ok := rev[b[i]]; ok {
			if x != a[i] {
				return false
			}
		} else {
			rev[b[i]] = a[i]
		}
	}
	return true
}

// RefSpMV computes y[d] = Σ_{s→d} x[s] serially.
func RefSpMV(c *graph.CSR, x []float64) []float64 {
	y := make([]float64, c.V)
	for s := uint32(0); s < c.V; s++ {
		b, e := c.EdgeRange(s)
		for i := b; i < e; i++ {
			y[graph.GetEdge(c.Adj, i)] += x[s]
		}
	}
	return y
}

// RefBC computes single-source Brandes dependency scores serially
// (multigraph semantics: parallel edges contribute multiple paths,
// matching the out-of-core implementation).
func RefBC(c *graph.CSR, src uint32) []float64 {
	n := c.V
	depth := make([]int32, n)
	sigma := make([]float64, n)
	for i := range depth {
		depth[i] = -1
	}
	depth[src] = 0
	sigma[src] = 1
	var order []uint32
	queue := []uint32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		b, e := c.EdgeRange(v)
		for i := b; i < e; i++ {
			d := graph.GetEdge(c.Adj, i)
			if depth[d] == -1 {
				depth[d] = depth[v] + 1
				queue = append(queue, d)
			}
			if depth[d] == depth[v]+1 {
				sigma[d] += sigma[v]
			}
		}
	}
	delta := make([]float64, n)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		b, e := c.EdgeRange(v)
		for j := b; j < e; j++ {
			d := graph.GetEdge(c.Adj, j)
			if depth[d] == depth[v]+1 {
				delta[v] += sigma[v] / sigma[d] * (1 + delta[d])
			}
		}
	}
	return delta
}
