package algo

import (
	"testing"

	"blaze/gen"
	"blaze/internal/graph"
)

// checkParentsByScan is CheckParents as it was first written: for every
// vertex it rescans its claimed parent's whole adjacency, O(Σ deg(parent)).
// It is the oracle the linear-time version is held to.
func checkParentsByScan(c *graph.CSR, src uint32, parent []int64, depth []int32) (uint32, bool) {
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
			if pv < 0 || pv >= int64(c.V) {
				return v, false
			}
			if depth[pv] != depth[v]-1 {
				return v, false
			}
			found := false
			b, e := c.EdgeRange(uint32(pv))
			for i := b; i < e; i++ {
				if graph.GetEdge(c.Adj, i) == v {
					found = true
					break
				}
			}
			if !found {
				return v, false
			}
		}
	}
	return 0, true
}

// refParents returns a valid BFS parent array from src: each reached
// vertex's parent is the first vertex that discovered it.
func refParents(c *graph.CSR, src uint32) []int64 {
	parent := make([]int64, c.V)
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = int64(src)
	queue := []uint32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		b, e := c.EdgeRange(v)
		for i := b; i < e; i++ {
			if d := graph.GetEdge(c.Adj, i); parent[d] == -1 {
				parent[d] = int64(v)
				queue = append(queue, d)
			}
		}
	}
	return parent
}

// TestCheckParentsMatchesScan holds CheckParents to its quadratic oracle on
// random multigraphs (self loops, repeated edges, isolated vertices) with
// valid parent arrays and with ones corrupted in every way the checks
// distinguish: out of range, negative, off by a level, no such edge, an
// unreachable vertex given a parent, a reached one left without, a wrong
// source. Both must return the same verdict and the same first vertex.
func TestCheckParentsMatchesScan(t *testing.T) {
	r := gen.NewRNG(7)
	valid, invalid := 0, 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(48)
		m := r.Intn(4 * n)
		src, dst := make([]uint32, m), make([]uint32, m)
		for i := range src {
			src[i], dst[i] = uint32(r.Intn(n)), uint32(r.Intn(n))
		}
		c := graph.MustBuild(uint32(n), src, dst)
		s := uint32(r.Intn(n))
		depth := RefBFSDepth(c, s)
		parent := refParents(c, s)
		for k := r.Intn(4); k > 0; k-- {
			v := r.Intn(n)
			switch r.Intn(5) {
			case 0: // any value, in range or not
				parent[v] = int64(r.Intn(n+4)) - 2
			case 1:
				parent[v] = -1
			case 2: // another vertex's parent
				parent[v] = parent[r.Intn(n)]
			case 3:
				parent[v] = int64(n)
			case 4:
				parent[v] = int64(v)
			}
		}
		wantV, wantOK := checkParentsByScan(c, s, parent, depth)
		gotV, gotOK := CheckParents(c, s, parent, depth)
		if gotV != wantV || gotOK != wantOK {
			t.Fatalf("trial %d (V=%d, E=%d, src %d): CheckParents = (%d, %v), the scan says (%d, %v)",
				trial, c.V, c.E, s, gotV, gotOK, wantV, wantOK)
		}
		if wantOK {
			valid++
		} else {
			invalid++
		}
	}
	// Both verdicts must be exercised, or the comparison proves little.
	if valid < 40 || invalid < 40 {
		t.Errorf("%d valid and %d corrupted arrays; want at least 40 of each", valid, invalid)
	}
}
