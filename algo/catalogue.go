package algo

import (
	"fmt"

	"blaze/internal/engine"
	"blaze/internal/exec"
)

// Args are the parameters a front end may hand a catalogue query; each
// query reads the ones it has a use for.
type Args struct {
	// Start is the source vertex of the traversal queries (bfs, bc).
	Start uint32
	// Eps is PageRank-delta's per-vertex activation threshold.
	Eps float64
	// Conv bounds every driven query (bfs, pr, wcc, bc's forward phase).
	Conv Convergence
}

// Answer is what a front end reports about one finished query.
type Answer struct {
	// Summary is a one-line digest of the result.
	Summary string
	// Iters is the number of rounds the driver issued (1 for spmv).
	Iters int
	// AlgoBytes is the footprint of the vertex arrays the query allocated
	// (Figure 12).
	AlgoBytes int64
}

// Query is one catalogue entry: a name, whether the query reads the
// transpose graph, and the function that runs it on a system.
type Query struct {
	Name string
	// Transpose marks queries that need in (wcc, bc); the others ignore it.
	Transpose bool
	Run       func(sys System, p exec.Proc, out, in *engine.Graph, a Args) (Answer, error)
}

// Queries is the paper's five evaluation queries in paper order, each
// driven by DriverFor(sys). It is the one place a query name is resolved:
// the query tools, blaze-serve and the figure harness all look names up
// here.
var Queries = []Query{
	{Name: "bfs", Run: func(sys System, p exec.Proc, out, _ *engine.Graph, a Args) (Answer, error) {
		parent, iters, err := BFSDrive(DriverFor(sys), sys, p, out, a.Start, a.Conv)
		reached := 0
		for _, pa := range parent {
			if pa != -1 {
				reached++
			}
		}
		return Answer{
			Summary:   fmt.Sprintf("reached %d vertices from %d in %d levels", reached, a.Start, iters),
			Iters:     iters,
			AlgoBytes: AlgoMemoryBFS(out.NumVertices()),
		}, err
	}},
	{Name: "pr", Run: func(sys System, p exec.Proc, out, _ *engine.Graph, a Args) (Answer, error) {
		rank, iters, err := PageRankDrive(DriverFor(sys), sys, p, out, a.Eps, a.Conv)
		s := fmt.Sprintf("%d iterations; top ranks:", iters)
		for _, v := range topRanks(rank, 5) {
			s += fmt.Sprintf(" v%d=%.3g", v, rank[v])
		}
		return Answer{Summary: s, Iters: iters, AlgoBytes: AlgoMemoryPageRank(out.NumVertices())}, err
	}},
	{Name: "wcc", Transpose: true, Run: func(sys System, p exec.Proc, out, in *engine.Graph, a Args) (Answer, error) {
		ids, iters, err := WCCDrive(DriverFor(sys), sys, p, out, in, a.Conv)
		sizes := make([]int32, len(ids))
		components, largest := 0, int32(0)
		for _, id := range ids {
			if sizes[id] == 0 {
				components++
			}
			sizes[id]++
			if sizes[id] > largest {
				largest = sizes[id]
			}
		}
		return Answer{
			Summary:   fmt.Sprintf("%d components, largest has %d vertices", components, largest),
			Iters:     iters,
			AlgoBytes: AlgoMemoryWCC(out.NumVertices()),
		}, err
	}},
	{Name: "spmv", Run: func(sys System, p exec.Proc, out, _ *engine.Graph, _ Args) (Answer, error) {
		x := make([]float64, out.NumVertices())
		for i := range x {
			x[i] = 1
		}
		y, err := SpMV(sys, p, out, x)
		var sum float64
		for _, v := range y {
			sum += v
		}
		return Answer{
			Summary:   fmt.Sprintf("sum(y) = %.0f (equals |E| for x = 1)", sum),
			Iters:     1,
			AlgoBytes: AlgoMemorySpMV(out.NumVertices()),
		}, err
	}},
	{Name: "bc", Transpose: true, Run: func(sys System, p exec.Proc, out, in *engine.Graph, a Args) (Answer, error) {
		dep, iters, err := BCDrive(DriverFor(sys), sys, p, out, in, a.Start, a.Conv)
		var maxV int
		for v, d := range dep {
			if d > dep[maxV] {
				maxV = v
			}
		}
		return Answer{
			Summary:   fmt.Sprintf("highest dependency: vertex %d (%.2f)", maxV, dep[maxV]),
			Iters:     iters,
			AlgoBytes: AlgoMemoryBC(out.NumVertices(), iters),
		}, err
	}},
}

// QueryByName looks name up in Queries.
func QueryByName(name string) (Query, bool) {
	for _, q := range Queries {
		if q.Name == name {
			return q, true
		}
	}
	return Query{}, false
}

// topRanks returns the k highest-ranked vertices, best first, ties to the
// lower vertex ID.
func topRanks(rank []float64, k int) []int {
	var top []int
	for v, r := range rank {
		i := len(top)
		for i > 0 && r > rank[top[i-1]] {
			i--
		}
		if i == k {
			continue
		}
		if len(top) < k {
			top = append(top, 0)
		}
		copy(top[i+1:], top[i:])
		top[i] = v
	}
	return top
}
