// Command bfs runs out-of-core breadth-first search (paper Algorithm 1):
//
//	bfs -computeWorkers 16 -startNode 0 graph.gr.index graph.gr.adj.0
//
// With -concurrency Q > 1 the traversal runs Q times concurrently against
// one shared graph session (replica i starts from startNode+i), sharing
// the page cache and coalescing overlapping device reads across replicas.
package main

import "blaze/internal/cli"

func main() { cli.Main("bfs") }
