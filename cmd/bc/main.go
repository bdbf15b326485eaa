// Command bc runs out-of-core single-source betweenness centrality
// (Brandes). Like the artifact, it needs the transpose graph for the
// backward dependency pass:
//
//	bc -computeWorkers 16 -startNode 0 graph.gr.index graph.gr.adj.0 \
//	   -inIndexFilename graph.tgr.index -inAdjFilenames graph.tgr.adj.0
package main

import (
	"fmt"
	"log"

	"blaze/algo"
	"blaze/internal/cli"
	"blaze/internal/exec"
)

func main() {
	opts := cli.ParseFlags("bc", true)
	env, err := cli.Setup(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()
	var maxV uint32
	var maxDep float64
	var qerr error
	env.Ctx.Run("main", func(p exec.Proc) {
		dep, _, err := algo.BCDrive(algo.DriverFor(env.Sys), env.Sys, p, env.Out, env.In, uint32(opts.StartNode), opts.Convergence())
		if err != nil {
			qerr = err
			return
		}
		for v, d := range dep {
			if d > maxDep {
				maxDep, maxV = d, uint32(v)
			}
		}
	})
	if qerr != nil {
		log.Fatalf("bc: %v", qerr)
	}
	env.Report("bc", fmt.Sprintf("highest dependency: vertex %d (%.2f)", maxV, maxDep))
}
