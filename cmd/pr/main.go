// Command pr runs out-of-core PageRank-delta (paper Algorithm 2):
//
//	pr -computeWorkers 16 -maxIters 20 -epsilon 0.001 graph.gr.index graph.gr.adj.0
package main

import (
	"fmt"
	"log"
	"sort"

	"blaze/algo"
	"blaze/internal/cli"
	"blaze/internal/exec"
)

func main() {
	opts := cli.ParseFlags("pr", false)
	env, err := cli.Setup(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()
	var rank []float64
	var iters int
	qs, qerr := env.RunQueries(opts, func(p exec.Proc, sys algo.System, i int) error {
		r, it, err := algo.PageRankDrive(algo.DriverFor(sys), sys, p, env.Out, opts.Epsilon, opts.Convergence())
		if i == 0 {
			rank, iters = r, it
		}
		return err
	})
	if qerr != nil {
		log.Fatalf("pr: %v", qerr)
	}
	type vr struct {
		v uint32
		r float64
	}
	top := make([]vr, 0, len(rank))
	for v, r := range rank {
		top = append(top, vr{uint32(v), r})
	}
	sort.Slice(top, func(i, j int) bool { return top[i].r > top[j].r })
	extra := fmt.Sprintf("%d iterations; top ranks:", iters)
	for i := 0; i < 5 && i < len(top); i++ {
		extra += fmt.Sprintf(" v%d=%.3g", top[i].v, top[i].r)
	}
	env.Report("pr", extra)
	env.ReportQueries(qs)
}
