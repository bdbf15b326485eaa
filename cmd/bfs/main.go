// Command bfs runs out-of-core breadth-first search (paper Algorithm 1):
//
//	bfs -computeWorkers 16 -startNode 0 graph.gr.index graph.gr.adj.0
//
// With -concurrency Q > 1 the traversal runs Q times concurrently against
// one shared graph session (replica i starts from startNode+i), sharing
// the page cache and coalescing overlapping device reads across replicas.
package main

import (
	"fmt"
	"log"

	"blaze/algo"
	"blaze/internal/cli"
	"blaze/internal/exec"
)

func main() {
	opts := cli.ParseFlags("bfs", false)
	env, err := cli.Setup(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()
	n := opts.Concurrency
	if n < 1 {
		n = 1
	}
	reached := make([]int64, n)
	qs, qerr := env.RunQueries(opts, func(p exec.Proc, sys algo.System, i int) error {
		src := uint32((uint64(opts.StartNode) + uint64(i)) % uint64(env.Out.NumVertices()))
		parent, _, err := algo.BFSDrive(algo.DriverFor(sys), sys, p, env.Out, src, opts.Convergence())
		if err != nil {
			return err
		}
		for _, pa := range parent {
			if pa != -1 {
				reached[i]++
			}
		}
		return nil
	})
	if qerr != nil {
		log.Fatalf("bfs: %v", qerr)
	}
	extra := fmt.Sprintf("reached %d vertices from %d in %d levels",
		reached[0], opts.StartNode, len(env.Sys.IterDeviceBytes()))
	if len(qs) > 0 {
		extra = ""
		for i := range reached {
			src := (uint64(opts.StartNode) + uint64(i)) % uint64(env.Out.NumVertices())
			if i > 0 {
				extra += "; "
			}
			extra += fmt.Sprintf("q%d reached %d from %d", i, reached[i], src)
		}
	}
	env.Report("bfs", extra)
	env.ReportQueries(qs)
}
