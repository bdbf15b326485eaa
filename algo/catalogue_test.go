package algo_test

import (
	"fmt"
	"strings"
	"testing"

	"blaze/algo"
	"blaze/internal/engine"
	"blaze/internal/exec"
)

// TestCatalogueMatchesDriveCalls: each algo.Queries entry is the direct
// *Drive call (SpMV for spmv) under DriverFor(sys) and nothing else — same
// iteration count, same model clock, and a digest that states what the
// direct call's result holds — so the table cannot drift from the functions
// it wraps.
func TestCatalogueMatchesDriveCalls(t *testing.T) {
	c := randomCSR(17, 6000)
	args := algo.Args{Start: 3, Eps: 1e-6, Conv: algo.Convergence{MaxIters: 12}}

	// Not Fatal: the closures below run on Sim procs, not the test goroutine.
	check := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	// direct runs the query by hand on a fresh engine and returns the digest
	// facts, the iteration count, the footprint and the model time.
	direct := map[string]func(sys algo.System, p exec.Proc, out, in *engine.Graph) (string, int, int64){
		"bfs": func(sys algo.System, p exec.Proc, out, in *engine.Graph) (string, int, int64) {
			parent, iters, err := algo.BFSDrive(algo.DriverFor(sys), sys, p, out, args.Start, args.Conv)
			check(err)
			reached := 0
			for _, pa := range parent {
				if pa >= 0 {
					reached++
				}
			}
			return fmt.Sprintf("reached %d vertices from 3 in %d levels", reached, iters), iters, algo.AlgoMemoryBFS(c.V)
		},
		"pr": func(sys algo.System, p exec.Proc, out, in *engine.Graph) (string, int, int64) {
			rank, iters, err := algo.PageRankDrive(algo.DriverFor(sys), sys, p, out, args.Eps, args.Conv)
			check(err)
			best := 0
			for v, r := range rank {
				if r > rank[best] {
					best = v
				}
			}
			return fmt.Sprintf("%d iterations; top ranks: v%d=%.3g ", iters, best, rank[best]), iters, algo.AlgoMemoryPageRank(c.V)
		},
		"wcc": func(sys algo.System, p exec.Proc, out, in *engine.Graph) (string, int, int64) {
			ids, iters, err := algo.WCCDrive(algo.DriverFor(sys), sys, p, out, in, args.Conv)
			check(err)
			sizes, largest := map[uint32]int{}, 0
			for _, id := range ids {
				sizes[id]++
				largest = max(largest, sizes[id])
			}
			return fmt.Sprintf("%d components, largest has %d vertices", len(sizes), largest), iters, algo.AlgoMemoryWCC(c.V)
		},
		"spmv": func(sys algo.System, p exec.Proc, out, in *engine.Graph) (string, int, int64) {
			x := make([]float64, c.V)
			for i := range x {
				x[i] = 1
			}
			y, err := algo.SpMV(sys, p, out, x)
			check(err)
			var sum float64
			for _, v := range y {
				sum += v
			}
			if int64(sum) != c.E {
				t.Errorf("spmv of the ones vector sums to %.0f, |E| = %d", sum, c.E)
			}
			return fmt.Sprintf("sum(y) = %d ", c.E), 1, algo.AlgoMemorySpMV(c.V)
		},
		"bc": func(sys algo.System, p exec.Proc, out, in *engine.Graph) (string, int, int64) {
			dep, iters, err := algo.BCDrive(algo.DriverFor(sys), sys, p, out, in, args.Start, args.Conv)
			check(err)
			best := 0
			for v, d := range dep {
				if d > dep[best] {
					best = v
				}
			}
			return fmt.Sprintf("highest dependency: vertex %d (%.2f)", best, dep[best]), iters, algo.AlgoMemoryBC(c.V, iters)
		},
	}

	if len(algo.Queries) != len(direct) {
		t.Fatalf("catalogue has %d queries, test covers %d", len(algo.Queries), len(direct))
	}
	for _, q := range algo.Queries {
		t.Run(q.Name, func(t *testing.T) {
			if got, ok := algo.QueryByName(q.Name); !ok || got.Name != q.Name {
				t.Fatalf("QueryByName(%q) = %q, %v", q.Name, got.Name, ok)
			}
			if want := q.Name == "wcc" || q.Name == "bc"; q.Transpose != want {
				t.Errorf("Transpose = %v", q.Transpose)
			}
			var digest string
			var iters int
			var bytes int64
			ctx, sys, out, in := sysOn(t, "blaze", c)
			ctx.Run("main", func(p exec.Proc) { digest, iters, bytes = direct[q.Name](sys, p, out, in) })
			directEnd := ctx.(*exec.Sim).End

			var ans algo.Answer
			var err error
			ctx, sys, out, in = sysOn(t, "blaze", c)
			ctx.Run("main", func(p exec.Proc) { ans, err = q.Run(sys, p, out, in, args) })
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(ans.Summary, digest) {
				t.Errorf("summary %q, the direct call gives %q", ans.Summary, digest)
			}
			if ans.Iters != iters || ans.AlgoBytes != bytes {
				t.Errorf("iters %d, footprint %d; the direct call gives %d, %d", ans.Iters, ans.AlgoBytes, iters, bytes)
			}
			if end := ctx.(*exec.Sim).End; end != directEnd {
				t.Errorf("model time %d ns, the direct call takes %d ns", end, directEnd)
			}
		})
	}
	if _, ok := algo.QueryByName("sssp"); ok {
		t.Error("QueryByName resolves a query the catalogue does not hold")
	}
}
