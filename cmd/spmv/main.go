// Command spmv runs one out-of-core sparse matrix-vector multiplication
// over the graph's adjacency matrix with x = 1-vector:
//
//	spmv -computeWorkers 16 graph.gr.index graph.gr.adj.0
package main

import "blaze/internal/cli"

func main() { cli.Main("spmv") }
