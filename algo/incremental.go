package algo

import (
	"fmt"

	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/frontier"
)

// This file holds the incremental query layer over dynamic graphs
// (engine.Dynamic): monotone formulations of BFS and WCC whose converged
// state is canonical — exact BFS depths, component-minimum labels — plus
// Repair entry points that, after a batch of edge insertions is sealed
// into delta segments, re-converge from the affected frontier instead of
// recomputing from scratch. Because both formulations are monotone
// (depths only decrease toward the true depth, labels only decrease
// toward the component minimum), the repaired state is bit-identical to a
// full recompute over the updated graph.

// bfsDepthFuncs returns the monotone depth-relaxation edge functions over
// depth (-1 = unreachable, treated as infinity).
func bfsDepthFuncs(depth []int32) EdgeFuncs {
	return EdgeFuncs{
		Scatter: func(s, d uint32) float64 { return float64(depth[s] + 1) },
		Gather: func(d uint32, v float64) bool {
			nd := int32(v)
			if depth[d] == -1 || nd < depth[d] {
				depth[d] = nd
				return true
			}
			return false
		},
		Cond: func(d uint32) bool { return true },
	}
}

// driveBFSDepths relaxes depth from the start frontier until no edge can
// improve a depth. start members must already hold their seed depths.
func driveBFSDepths(drv Driver, sys System, p exec.Proc, g *engine.Graph,
	start *frontier.VertexSubset, depth []int32) (int, error) {
	fns := bfsDepthFuncs(depth)
	round := func(p exec.Proc, f *frontier.VertexSubset, _ int) (*frontier.VertexSubset, error) {
		return sys.EdgeMap(p, g, f, fns, true)
	}
	return drv.Drive(p, sys, start, round, Convergence{})
}

// BFSDepths runs BFS from src and returns the depth array (-1 =
// unreachable): the canonical result the incremental layer maintains.
// Unlike BFS's parent array — where any shortest-path tree is valid — the
// depth array has exactly one fixed point, so full and incremental runs
// can be compared bit for bit.
func BFSDepths(sys System, p exec.Proc, g *engine.Graph, src uint32) ([]int32, int, error) {
	n := g.NumVertices()
	depth := make([]int32, n)
	for i := range depth {
		depth[i] = -1
	}
	depth[src] = 0
	iters, err := driveBFSDepths(DriverFor(sys), sys, p, g, frontier.Single(n, src), depth)
	return depth, iters, err
}

// IncBFS is an incrementally maintained single-source BFS: Depth holds
// the exact depth of every vertex from Src on the graph as of the last
// completed Repair (or the initial NewIncBFS computation).
type IncBFS struct {
	Src   uint32
	Depth []int32
}

// NewIncBFS computes the initial depths from src.
func NewIncBFS(sys System, p exec.Proc, g *engine.Graph, src uint32) (*IncBFS, int, error) {
	depth, iters, err := BFSDepths(sys, p, g, src)
	if err != nil {
		return nil, iters, err
	}
	return &IncBFS{Src: src, Depth: depth}, iters, nil
}

// Repair re-converges the depths after the edge insertions (es[i], ed[i])
// have been sealed into g's overlay (engine.Dynamic.Seal). Only
// destinations an inserted edge actually improves seed the frontier —
// depth[u]+1 < depth[v] — and relaxation spreads from there over the
// overlay (base + segments), touching only the affected region. Returns
// the driver iteration count (0 = no insertion changed any depth).
func (q *IncBFS) Repair(sys System, p exec.Proc, g *engine.Graph, es, ed []uint32) (int, error) {
	n := g.NumVertices()
	if int(n) != len(q.Depth) {
		return 0, fmt.Errorf("algo: IncBFS over %d vertices, graph has %d (vertex set must not grow)", len(q.Depth), n)
	}
	if len(es) != len(ed) {
		return 0, fmt.Errorf("algo: insertion batch length mismatch (%d vs %d)", len(es), len(ed))
	}
	seed := frontier.NewVertexSubset(n)
	for i, u := range es {
		v := ed[i]
		du := q.Depth[u]
		if du < 0 {
			continue // source unreachable: edge changes nothing yet
		}
		if q.Depth[v] == -1 || du+1 < q.Depth[v] {
			q.Depth[v] = du + 1
			seed.Add(v)
		}
	}
	seed.Seal()
	if seed.Empty() {
		return 0, nil
	}
	return driveBFSDepths(DriverFor(sys), sys, p, g, seed, q.Depth)
}

// IncWCC is an incrementally maintained weakly-connected-components
// labelling: IDs[v] is the minimum vertex ID of v's component as of the
// last completed Repair (or the initial NewIncWCC computation).
type IncWCC struct {
	IDs  []uint32
	prev []uint32
}

// newIncWCC returns the starting labelling: every vertex its own label.
func newIncWCC(n uint32) *IncWCC {
	q := &IncWCC{IDs: make([]uint32, n), prev: make([]uint32, n)}
	for i := range q.IDs {
		q.IDs[i] = uint32(i)
		q.prev[i] = uint32(i)
	}
	return q
}

// drive runs min-label propagation with shortcutting over q's labels from
// the start frontier, over both outG and its transpose inG. It is WCC's one
// round shape: WCCDrive runs it from every vertex, Repair from the
// endpoints an insertion relabelled.
func (q *IncWCC) drive(drv Driver, sys System, p exec.Proc, outG, inG *engine.Graph,
	start *frontier.VertexSubset, cv Convergence) (int, error) {
	ids, prev := q.IDs, q.prev
	fns := EdgeFuncs{
		Scatter: func(s, d uint32) float64 { return float64(ids[s]) },
		Gather: func(d uint32, v float64) bool {
			if uint32(v) < ids[d] {
				ids[d] = uint32(v)
				return true
			}
			return false
		},
		Cond: func(d uint32) bool { return true },
	}
	applyFilter := func(i uint32) bool {
		// Shortcutting: pointer-jump the label chain.
		if id := ids[ids[i]]; ids[i] != id {
			ids[i] = id
		}
		if prev[i] != ids[i] {
			prev[i] = ids[i]
			return true
		}
		return false
	}
	round := func(p exec.Proc, f *frontier.VertexSubset, _ int) (*frontier.VertexSubset, error) {
		a, err := sys.EdgeMap(p, outG, f, fns, true)
		if err != nil {
			return nil, err
		}
		b, err := sys.EdgeMap(p, inG, f, fns, true)
		if err != nil {
			return nil, err
		}
		a.Merge(b)
		a.Merge(f) // shortcutting must also re-check prior frontier members
		next := sys.VertexMap(p, a, applyFilter)
		sys.Release(a)
		sys.Release(b)
		return next, nil
	}
	return drv.Drive(p, sys, start, round, cv)
}

// NewIncWCC computes the initial labelling (equivalent to WCC, which
// already converges to the canonical component-minimum labels).
func NewIncWCC(sys System, p exec.Proc, outG, inG *engine.Graph) (*IncWCC, int, error) {
	n := outG.NumVertices()
	q := newIncWCC(n)
	iters, err := q.drive(DriverFor(sys), sys, p, outG, inG, frontier.All(n), Convergence{})
	if err != nil {
		return nil, iters, err
	}
	return q, iters, nil
}

// Repair re-converges the labels after the edge insertions (es[i], ed[i])
// have been sealed into both overlays (the forward graph's and the
// transpose's — engine.Dynamic mirrors every insertion, which is what
// makes the repair see it from both sides). An insertion only matters
// when it joins two components; the lower label wins immediately at the
// higher endpoint, which seeds the propagation frontier. Returns the
// driver iteration count (0 = every insertion was intra-component).
func (q *IncWCC) Repair(sys System, p exec.Proc, outG, inG *engine.Graph, es, ed []uint32) (int, error) {
	n := outG.NumVertices()
	if int(n) != len(q.IDs) {
		return 0, fmt.Errorf("algo: IncWCC over %d vertices, graph has %d (vertex set must not grow)", len(q.IDs), n)
	}
	if len(es) != len(ed) {
		return 0, fmt.Errorf("algo: insertion batch length mismatch (%d vs %d)", len(es), len(ed))
	}
	seed := frontier.NewVertexSubset(n)
	for i, u := range es {
		v := ed[i]
		a, b := q.IDs[u], q.IDs[v]
		switch {
		case a < b:
			q.IDs[v] = a
			q.prev[v] = a
			seed.Add(v)
		case b < a:
			q.IDs[u] = b
			q.prev[u] = b
			seed.Add(u)
		}
	}
	seed.Seal()
	if seed.Empty() {
		return 0, nil
	}
	return q.drive(DriverFor(sys), sys, p, outG, inG, seed, Convergence{})
}
