// Command pr runs out-of-core PageRank-delta (paper Algorithm 2):
//
//	pr -computeWorkers 16 -maxIters 20 -epsilon 0.001 graph.gr.index graph.gr.adj.0
package main

import "blaze/internal/cli"

func main() { cli.Main("pr") }
