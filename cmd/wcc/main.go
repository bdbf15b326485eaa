// Command wcc runs out-of-core weakly-connected components with
// shortcutting label propagation (paper Algorithm 3). It needs the
// transpose graph to treat edges as undirected:
//
//	wcc graph.gr.index graph.gr.adj.0 \
//	    -inIndexFilename graph.tgr.index -inAdjFilenames graph.tgr.adj.0
package main

import "blaze/internal/cli"

func main() { cli.Main("wcc") }
