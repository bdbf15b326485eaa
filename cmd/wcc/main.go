// Command wcc runs out-of-core weakly-connected components with
// shortcutting label propagation (paper Algorithm 3). It needs the
// transpose graph to treat edges as undirected:
//
//	wcc graph.gr.index graph.gr.adj.0 \
//	    -inIndexFilename graph.tgr.index -inAdjFilenames graph.tgr.adj.0
package main

import (
	"fmt"
	"log"

	"blaze/algo"
	"blaze/internal/cli"
	"blaze/internal/exec"
)

func main() {
	opts := cli.ParseFlags("wcc", true)
	env, err := cli.Setup(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer env.Close()
	var components int
	var largest int
	qs, qerr := env.RunQueries(opts, func(p exec.Proc, sys algo.System, i int) error {
		ids, _, err := algo.WCCDrive(algo.DriverFor(sys), sys, p, env.Out, env.In, opts.Convergence())
		if err != nil {
			return err
		}
		if i != 0 {
			return nil
		}
		sizes := map[uint32]int{}
		for _, id := range ids {
			sizes[id]++
		}
		components = len(sizes)
		for _, n := range sizes {
			if n > largest {
				largest = n
			}
		}
		return nil
	})
	if qerr != nil {
		log.Fatalf("wcc: %v", qerr)
	}
	env.Report("wcc", fmt.Sprintf("%d components, largest has %d vertices", components, largest))
	env.ReportQueries(qs)
}
