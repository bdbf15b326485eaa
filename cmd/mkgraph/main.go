// Command mkgraph generates a dataset preset (Table II, scaled) or converts
// a plain-text edge list into Blaze's on-disk format, writing the four
// artifact files: <out>.gr.index, <out>.gr.adj.0 (forward CSR) and
// <out>.tgr.index, <out>.tgr.adj.0 (transpose).
//
//	mkgraph -preset rmat27 -scale 512 -out /mnt/nvme/rmat27
//	mkgraph -edges edges.txt -vertices 1000000 -out /mnt/nvme/custom
//	mkgraph -edges huge.txt -maxMemMB 256 -out /mnt/nvme/huge
//
// With -maxMemMB the edge list is converted out of core: radix-sorted runs
// of budget/16 edges, then an external merge of both directions at once
// (internal/ingest), producing files byte-identical to the in-memory build.
// The budget covers the edge buffer and its sort scratch while runs form
// and the run and output blocks while they merge; the two V-sized degree
// arrays are outside it.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"blaze/gen"
	"blaze/internal/graph"
	"blaze/internal/ingest"
)

func main() {
	preset := flag.String("preset", "", "Table II dataset short or full name (r2, rmat27, ur, tw, sk, fr, hy, ...)")
	scale := flag.Float64("scale", 512, "divide the paper's dataset size by this factor")
	edges := flag.String("edges", "", "plain-text edge list ('src dst' per line) instead of a preset")
	vertices := flag.Uint64("vertices", 0, "vertex count for -edges input (0 = max ID + 1)")
	maxMemMB := flag.Int64("maxMemMB", 0, "external-sort -edges input under this budget: edge buffer + sort scratch (16 B/edge) while runs form, run and output blocks while they merge; V-sized degree arrays not counted (0 = build in memory)")
	tmpDir := flag.String("tmpdir", "", "directory for external-sort run files (default: system temp)")
	out := flag.String("out", "", "output base path (required)")
	flag.Parse()
	if *out == "" || (*preset == "") == (*edges == "") {
		fmt.Fprintln(os.Stderr, "usage: mkgraph (-preset NAME -scale N | -edges FILE [-vertices N] [-maxMemMB N]) -out BASE")
		flag.PrintDefaults()
		os.Exit(2)
	}

	if *vertices > math.MaxUint32 {
		// A count past uint32 used to truncate silently; reject it.
		log.Fatalf("mkgraph: -vertices %d exceeds uint32 range", *vertices)
	}

	if *edges != "" && *maxMemMB > 0 {
		// Out-of-core path: one pass over the input, both directions
		// emitted straight off the merge streams.
		stats, err := ingest.BuildFromFile(*edges, *out, ingest.Config{
			MaxMemBytes: *maxMemMB << 20,
			TmpDir:      *tmpDir,
			Vertices:    uint32(*vertices),
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("external-sorted %d edges over %d vertices (%d runs, %d MiB budget)\n",
			stats.Edges, stats.Vertices, stats.Runs, *maxMemMB)
		fmt.Printf("wrote %s.gr.index, %s.gr.adj.0, %s.tgr.index, %s.tgr.adj.0\n", *out, *out, *out, *out)
		return
	}

	var src, dst []uint32
	var n uint32
	if *preset != "" {
		p, err := gen.PresetByShort(*preset)
		if err != nil {
			log.Fatal(err)
		}
		p = p.Scaled(*scale)
		fmt.Printf("generating %s at 1/%g scale: |V|=%d |E|=%d\n", p.Name, *scale, p.V, p.E)
		src, dst = p.Generate()
		n = p.V
	} else {
		var err error
		src, dst, n, err = ingest.ReadFile(*edges, *vertices)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("read %d edges over %d vertices from %s\n", len(src), n, *edges)
	}

	c, err := graph.Build(n, src, dst)
	if err != nil {
		log.Fatal(err)
	}
	tr := c.Transpose()
	if err := graph.WriteFiles(c, tr, *out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s.gr.index, %s.gr.adj.0 (%d pages), %s.tgr.index, %s.tgr.adj.0\n",
		*out, *out, c.NumPages(), *out, *out)
}
