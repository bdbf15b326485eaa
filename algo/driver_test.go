// Driver-layer unit tests: the convergence contract (max-iters cap,
// tolerance stop) and driver resolution.
package algo_test

import (
	"testing"

	"blaze/algo"
	"blaze/internal/exec"
)

// TestDriverFor: every engine's queries are driven by the barrier driver,
// which issues exactly MaxIters rounds on each of them.
func TestDriverFor(t *testing.T) {
	c := randomCSR(11, 500)
	for _, name := range conformanceEngines {
		ctx, sys, g, _ := sysOn(t, name, c)
		var iters int
		ctx.Run("main", func(p exec.Proc) {
			_, iters, _ = algo.PageRankDrive(algo.DriverFor(sys), sys, p, g, 1e-9, algo.Convergence{MaxIters: 2})
		})
		if iters != 2 {
			t.Errorf("%s: driver ran %d rounds, want 2", name, iters)
		}
	}
}

// TestRoundDriverMatchesClassicLoop: PageRankDrive under an explicit
// round Driver with only MaxIters set must be bit-identical to the classic
// PageRank entry point — the refactor moved the loop, not the semantics.
func TestRoundDriverMatchesClassicLoop(t *testing.T) {
	c := randomCSR(19, 1500)
	run := func(viaDrive bool) []float64 {
		ctx, sys, g, _ := sysOn(t, "blaze", c)
		var rank []float64
		ctx.Run("main", func(p exec.Proc) {
			if viaDrive {
				rank, _, _ = algo.PageRankDrive(algo.Driver{}, sys, p, g, 1e-6, algo.Convergence{MaxIters: 5})
			} else {
				rank = algo.Must(algo.PageRank(sys, p, g, 1e-6, 5))
			}
		})
		return rank
	}
	classic := run(false)
	driven := run(true)
	for v := range classic {
		if classic[v] != driven[v] {
			t.Fatalf("rank[%d] = %g classic, %g driven (must be bit-identical)", v, classic[v], driven[v])
		}
	}
}

// TestConvergenceMaxIters: the cap stops the drive at exactly MaxIters
// rounds on a barrier driver.
func TestConvergenceMaxIters(t *testing.T) {
	c := randomCSR(19, 1500)
	ctx, sys, g, _ := sysOn(t, "blaze", c)
	var iters int
	ctx.Run("main", func(p exec.Proc) {
		_, iters, _ = algo.PageRankDrive(algo.Driver{}, sys, p, g, 1e-9, algo.Convergence{MaxIters: 3})
	})
	if iters != 3 {
		t.Errorf("PageRankDrive ran %d rounds, want 3 (MaxIters)", iters)
	}
}

// TestConvergenceTol: a tolerance far above the initial residual stops
// PageRank after the first round, using the default residual
// (unpropagated rank mass) that PageRankDrive installs.
func TestConvergenceTol(t *testing.T) {
	c := randomCSR(19, 1500)
	ctx, sys, g, _ := sysOn(t, "blaze", c)
	var iters int
	ctx.Run("main", func(p exec.Proc) {
		_, iters, _ = algo.PageRankDrive(algo.DriverFor(sys), sys, p, g, 1e-9, algo.Convergence{Tol: 1e12})
	})
	if iters != 1 {
		t.Errorf("PageRankDrive ran %d iterations, want 1 (Tol stop)", iters)
	}
}
