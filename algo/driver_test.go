// Driver-layer unit tests: the convergence contract (max-iters cap,
// tolerance stop) and driver resolution.
package algo_test

import (
	"testing"

	"blaze/algo"
	"blaze/internal/exec"
	"blaze/internal/frontier"
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

// TestDriveReleasesWhatItDrops: Drive hands back every frontier a round
// returned once the next round replaced it, and the last one when it
// stops; never the caller's start — not even when no round runs — and
// never a frontier a round returned unchanged.
func TestDriveReleasesWhatItDrops(t *testing.T) {
	c := randomCSR(11, 500)
	ctx, sys, _, _ := sysOn(t, "blaze", c)
	rec := newRecorder(sys)
	start := frontier.Single(c.V, 0)
	made := []*frontier.VertexSubset{frontier.Single(c.V, 1), frontier.Single(c.V, 2)}
	round := func(p exec.Proc, f *frontier.VertexSubset, iter int) (*frontier.VertexSubset, error) {
		if iter == 2 { // hand the input straight back
			return f, nil
		}
		if iter == 3 {
			return frontier.NewVertexSubset(c.V), nil
		}
		rec.owned[made[iter]] = true
		return made[iter], nil
	}
	var iters int
	ctx.Run("main", func(p exec.Proc) {
		iters, _ = algo.Driver{}.Drive(p, rec, start, round, algo.Convergence{})
		algo.Driver{}.Drive(p, rec, frontier.NewVertexSubset(c.V), round, algo.Convergence{})
	})
	if iters != 4 {
		t.Fatalf("drove %d rounds, want 4", iters)
	}
	if len(rec.released) != 3 || rec.released[0] != made[0] || rec.released[1] != made[1] || !rec.released[2].Empty() {
		t.Errorf("released %v, want the two made frontiers once each, then the last (empty) one", rec.released)
	}
	for _, f := range rec.released {
		if f == start {
			t.Error("released the caller's start frontier")
		}
	}
}
