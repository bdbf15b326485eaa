// Command bc runs out-of-core single-source betweenness centrality
// (Brandes). Like the artifact, it needs the transpose graph for the
// backward dependency pass:
//
//	bc -computeWorkers 16 -startNode 0 graph.gr.index graph.gr.adj.0 \
//	   -inIndexFilename graph.tgr.index -inAdjFilenames graph.tgr.adj.0
package main

import "blaze/internal/cli"

func main() { cli.Main("bc") }
