package algo

import (
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/frontier"
)

// BFS runs breadth-first search from src (paper Algorithm 1) under
// DriverFor(sys) and returns the parent array: Parent[v] =
// predecessor of v in the BFS tree, Parent[src] = src, and -1 for
// unreachable vertices. A non-nil error means the engine failed
// mid-traversal; the parent array is partial.
func BFS(sys System, p exec.Proc, g *engine.Graph, src uint32) ([]int64, error) {
	parent, _, err := BFSDrive(DriverFor(sys), sys, p, g, src, Convergence{})
	return parent, err
}

// BFSDrive runs BFS under an explicit driver and convergence contract,
// returning the parent array and the driver's iteration count: the
// classic set-once formulation, one level per round.
func BFSDrive(drv Driver, sys System, p exec.Proc, g *engine.Graph, src uint32, cv Convergence) ([]int64, int, error) {
	n := g.NumVertices()
	parent := make([]int64, n)
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = int64(src)
	fns := EdgeFuncs{
		Scatter: func(s, d uint32) float64 { return float64(s) },
		Gather: func(d uint32, v float64) bool {
			if parent[d] == -1 {
				parent[d] = int64(v)
				return true
			}
			return false
		},
		Cond: func(d uint32) bool { return parent[d] == -1 },
	}
	round := func(p exec.Proc, f *frontier.VertexSubset, _ int) (*frontier.VertexSubset, error) {
		return sys.EdgeMap(p, g, f, fns, true)
	}
	iters, err := drv.Drive(p, sys, frontier.Single(n, src), round, cv)
	return parent, iters, err
}

// AlgoMemoryBFS returns the algorithm-array bytes BFS allocates (Fig. 12).
func AlgoMemoryBFS(n uint32) int64 { return int64(n) * 8 }

// PageRank runs the PageRank-delta variant (paper Algorithm 2) under
// DriverFor(sys): vertices stay active only while their rank
// keeps changing by more than eps relative to their current rank. It
// returns the rank vector (proportional to true PageRank; normalize
// before comparing). maxIter bounds the iteration count (0 = until
// convergence).
func PageRank(sys System, p exec.Proc, g *engine.Graph, eps float64, maxIter int) ([]float64, error) {
	rank, _, err := PageRankDrive(DriverFor(sys), sys, p, g, eps, Convergence{MaxIters: maxIter})
	return rank, err
}

// PageRankDrive runs PageRank-delta under an explicit driver and
// convergence contract, returning the rank vector and the driver's
// iteration count. When cv.Tol > 0 and cv.Residual is nil, a default
// residual — the total unpropagated rank mass — is installed, so
// tolerance-based convergence works out of the box.
func PageRankDrive(drv Driver, sys System, p exec.Proc, g *engine.Graph, eps float64, cv Convergence) ([]float64, int, error) {
	n := g.NumVertices()
	const damping = 0.85
	rank := make([]float64, n)
	nghSum := make([]float64, n)
	delta := make([]float64, n)
	for i := range delta {
		delta[i] = 1.0 / float64(n)
		rank[i] = delta[i]
	}
	fns := EdgeFuncs{
		Scatter: func(s, d uint32) float64 {
			return delta[s] / float64(g.CSR.Degree(s))
		},
		Gather: func(d uint32, v float64) bool {
			nghSum[d] += v
			return true
		},
		Cond: func(d uint32) bool { return true },
	}
	var residual float64
	applyFilter := func(i uint32) bool {
		delta[i] = nghSum[i] * damping
		nghSum[i] = 0
		if abs(delta[i]) > eps*rank[i] {
			rank[i] += delta[i]
			residual += abs(delta[i])
			return true
		}
		delta[i] = 0
		return false
	}
	round := func(p exec.Proc, f *frontier.VertexSubset, _ int) (*frontier.VertexSubset, error) {
		receivers, err := sys.EdgeMap(p, g, f, fns, true)
		if err != nil {
			return nil, err
		}
		residual = 0
		next := sys.VertexMap(p, receivers, applyFilter)
		sys.Release(receivers)
		return next, nil
	}
	cv2 := cv
	if cv2.Tol > 0 && cv2.Residual == nil {
		cv2.Residual = func() float64 { return residual }
	}
	iters, err := drv.Drive(p, sys, frontier.All(n), round, cv2)
	return rank, iters, err
}

// AlgoMemoryPageRank returns PageRank-delta's three float arrays (Fig. 12).
func AlgoMemoryPageRank(n uint32) int64 { return 3 * int64(n) * 8 }

// WCC computes weakly connected components with shortcutting label
// propagation (paper Algorithm 3) under DriverFor(sys), on
// the graph viewed as undirected, which is why it propagates over both
// the forward graph outG and its transpose inG. It returns a label array
// where two vertices have equal labels iff they are weakly connected.
func WCC(sys System, p exec.Proc, outG, inG *engine.Graph) ([]uint32, error) {
	ids, _, err := WCCDrive(DriverFor(sys), sys, p, outG, inG, Convergence{})
	return ids, err
}

// WCCDrive runs WCC under an explicit driver and convergence contract,
// returning the label array and the driver's iteration count. Min-label
// propagation is monotone: the fixed point assigns every vertex its
// component's minimum ID.
func WCCDrive(drv Driver, sys System, p exec.Proc, outG, inG *engine.Graph, cv Convergence) ([]uint32, int, error) {
	n := outG.NumVertices()
	q := newIncWCC(n)
	iters, err := q.drive(drv, sys, p, outG, inG, frontier.All(n), cv)
	return q.IDs, iters, err
}

// AlgoMemoryWCC returns WCC's two ID arrays (Fig. 12).
func AlgoMemoryWCC(n uint32) int64 { return 2 * int64(n) * 4 }

// SpMV multiplies the graph's adjacency matrix (edges s→d as A[d][s] = 1,
// multi-edges accumulate) with the vector x: y[d] = Σ_{s→d} x[s]. One full
// EdgeMap pass, as in the paper's evaluation; there is no iteration to
// drive, so SpMV is driver-independent.
func SpMV(sys System, p exec.Proc, g *engine.Graph, x []float64) ([]float64, error) {
	n := g.NumVertices()
	y := make([]float64, n)
	fns := EdgeFuncs{
		Scatter: func(s, d uint32) float64 { return x[s] },
		Gather: func(d uint32, v float64) bool {
			y[d] += v
			return false
		},
		Cond: func(d uint32) bool { return true },
	}
	if _, err := sys.EdgeMap(p, g, frontier.All(n), fns, false); err != nil {
		return y, err
	}
	sys.EndIteration(p)
	return y, nil
}

// AlgoMemorySpMV returns SpMV's two vectors (Fig. 12).
func AlgoMemorySpMV(n uint32) int64 { return 2 * int64(n) * 8 }

// BC computes single-source betweenness centrality contributions from src
// using Brandes' algorithm (forward BFS accumulating shortest-path counts,
// then reverse dependency propagation over the transpose graph). It
// returns the dependency score of every vertex. Like the paper's
// implementation it stores one frontier per BFS level, which is why BC has
// the largest memory footprint (§V-F).
func BC(sys System, p exec.Proc, outG, inG *engine.Graph, src uint32) ([]float64, error) {
	delta, _, err := BCDrive(DriverFor(sys), sys, p, outG, inG, src, Convergence{})
	return delta, err
}

// BCDrive runs BC under an explicit driver and convergence contract,
// returning the dependency scores and the total iteration count across
// both phases. Brandes' phases are level-synchronous — sigma sums all
// same-level contributions before the next level, and the backward sweep
// replays the recorded levels; cv (the iteration cap) applies to the
// forward phase.
func BCDrive(drv Driver, sys System, p exec.Proc, outG, inG *engine.Graph, src uint32, cv Convergence) ([]float64, int, error) {
	n := outG.NumVertices()
	depth := make([]int32, n)
	sigma := make([]float64, n)
	for i := range depth {
		depth[i] = -1
	}
	depth[src] = 0
	sigma[src] = 1
	delta := make([]float64, n)

	var levels []*frontier.VertexSubset
	var r int32
	fwdFns := EdgeFuncs{
		Scatter: func(s, d uint32) float64 { return sigma[s] },
		Gather: func(d uint32, v float64) bool {
			if depth[d] == -1 {
				depth[d] = r
				sigma[d] = v
				return true
			}
			if depth[d] == r {
				sigma[d] += v
			}
			return false
		},
		Cond: func(d uint32) bool { return depth[d] == -1 || depth[d] == r },
	}
	forward := func(p exec.Proc, f *frontier.VertexSubset, iter int) (*frontier.VertexSubset, error) {
		levels = append(levels, f)
		r = int32(iter) + 1
		return sys.EdgeMap(p, outG, f, fwdFns, true)
	}
	// levels outlive the forward drive: the backward one replays them, so
	// neither drive may hand one back.
	iters, err := drv.Drive(p, keeping{sys}, frontier.Single(n, src), forward, cv)
	if err != nil || len(levels) <= 1 {
		return delta, iters, err
	}

	var lvl int32
	backFns := EdgeFuncs{
		Scatter: func(s, d uint32) float64 { return (1 + delta[s]) / sigma[s] },
		Gather: func(d uint32, v float64) bool {
			if depth[d] == lvl-1 {
				delta[d] += sigma[d] * v
			}
			return false
		},
		Cond: func(d uint32) bool { return depth[d] == lvl-1 },
	}
	backward := func(p exec.Proc, w *frontier.VertexSubset, iter int) (*frontier.VertexSubset, error) {
		l := len(levels) - 1 - iter
		lvl = int32(l)
		if _, err := sys.EdgeMap(p, inG, w, backFns, false); err != nil {
			return nil, err
		}
		if l > 1 {
			return levels[l-1], nil
		}
		return frontier.NewVertexSubset(n), nil
	}
	bIters, err := drv.Drive(p, keeping{sys}, levels[len(levels)-1], backward, Convergence{})
	return delta, iters + bIters, err
}

// AlgoMemoryBC returns BC's arrays plus the per-level frontier estimate
// (one bit per vertex per level in the worst dense case; Fig. 12 and the
// paper's §V-F note that this makes BC the most memory-hungry query).
func AlgoMemoryBC(n uint32, numLevels int) int64 {
	return int64(n)*(4+8+8) + int64(numLevels)*int64(n)/8
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
