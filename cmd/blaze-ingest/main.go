// Command blaze-ingest drives the dynamic-graph path end to end: it loads
// a base graph, streams edge insertions into delta CSR segments
// (engine.Dynamic), and keeps BFS and WCC results current by incremental
// repair instead of full recomputation.
//
//	blaze-ingest -preset r2 -scale 512 -randUpdates 10000 -batch 1000
//	blaze-ingest -edges base.txt -updates inserts.txt -batch 4096 -verify
//
// Insertions come from -updates (a plain-text edge list applied in order)
// or -randUpdates (deterministic pseudo-random endpoints). Every -batch
// insertions the buffer seals into one sorted segment per direction —
// merged with its neighbours while they are less than twice its size, so N
// batches leave about log2 N live segments — and both queries repair from
// the affected frontier. With -verify each batch is followed by a full
// recompute and a bit-for-bit comparison of the repaired state.
// -compactEvery folds segments back into the base CSR.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/graph"
	"blaze/internal/ingest"
	"blaze/internal/registry"
	"blaze/internal/ssd"
)

// engineName is the one engine that iterates delta segments
// (registry.DynamicCapable).
const engineName = "blaze"

func main() {
	preset := flag.String("preset", "", "Table II dataset short or full name for the base graph")
	scale := flag.Float64("scale", 512, "divide the paper's dataset size by this factor")
	edges := flag.String("edges", "", "plain-text base edge list instead of a preset")
	vertices := flag.Uint64("vertices", 0, "vertex count for -edges input (0 = max ID + 1)")
	updates := flag.String("updates", "", "edge list of insertions to stream in (endpoints must be < |V|)")
	randUpdates := flag.Int("randUpdates", 0, "generate this many pseudo-random insertions instead of -updates")
	seed := flag.Uint64("seed", 1, "seed for -randUpdates")
	batch := flag.Int("batch", 1024, "insertions per seal")
	compactEvery := flag.Int("compactEvery", 0, "compact segments into the base every N seals (0 = never)")
	workers := flag.Int("computeWorkers", 16, "number of computation workers")
	devices := flag.Int("devices", 1, "number of SSDs to stripe base and segments over")
	startNode := flag.Uint64("startNode", 0, "BFS source vertex")
	verify := flag.Bool("verify", false, "after each batch, fully recompute and compare bit for bit")
	flag.Parse()
	if (*preset == "") == (*edges == "") {
		fmt.Fprintln(os.Stderr, "usage: blaze-ingest (-preset NAME | -edges FILE) [-updates FILE | -randUpdates N] [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *vertices > math.MaxUint32 {
		log.Fatalf("blaze-ingest: -vertices %d exceeds uint32 range", *vertices)
	}

	// Base graph: preset or edge list, forward plus mirrored transpose.
	var c *graph.CSR
	if *preset != "" {
		p, err := gen.PresetByShort(*preset)
		if err != nil {
			log.Fatal(err)
		}
		p = p.Scaled(*scale)
		src, dst := p.Generate()
		c = graph.MustBuild(p.V, src, dst)
		fmt.Printf("base: %s at 1/%g scale, |V|=%d |E|=%d\n", p.Name, *scale, c.V, c.E)
	} else {
		src, dst, n, err := ingest.ReadFile(*edges, *vertices)
		if err != nil {
			log.Fatal(err)
		}
		var berr error
		c, berr = graph.Build(n, src, dst)
		if berr != nil {
			log.Fatal(berr)
		}
		fmt.Printf("base: %s, |V|=%d |E|=%d\n", *edges, c.V, c.E)
	}
	if *startNode >= uint64(c.V) {
		log.Fatalf("blaze-ingest: -startNode %d out of range (|V| = %d)", *startNode, c.V)
	}

	// The insertion stream, fully materialized so batches can seed repair.
	var us, ud []uint32
	switch {
	case *updates != "":
		r, closer, err := ingest.OpenEdgeList(*updates)
		if err != nil {
			log.Fatal(err)
		}
		for {
			s, d, ok, err := r.Next()
			if err != nil {
				closer.Close()
				log.Fatal(err)
			}
			if !ok {
				break
			}
			if s >= c.V || d >= c.V {
				closer.Close()
				log.Fatalf("blaze-ingest: update edge %d->%d outside the base vertex set (|V| = %d)", s, d, c.V)
			}
			us = append(us, s)
			ud = append(ud, d)
		}
		closer.Close()
	case *randUpdates > 0:
		r := gen.NewRNG(*seed)
		for i := 0; i < *randUpdates; i++ {
			us = append(us, uint32(r.Intn(int(c.V))))
			ud = append(ud, uint32(r.Intn(int(c.V))))
		}
	default:
		log.Fatal("blaze-ingest: nothing to ingest (need -updates or -randUpdates)")
	}
	if *batch <= 0 {
		*batch = len(us)
	}

	ctx := exec.NewSim()
	fwd := engine.FromCSR(ctx, "dyn", c, *devices, ssd.OptaneSSD, nil, nil)
	tr := engine.FromCSR(ctx, "dyn.t", c.Transpose(), *devices, ssd.OptaneSSD, nil, nil)
	sys, err := registry.New(engineName, ctx, registry.Options{
		Edges: c.E, Workers: *workers, NumDev: *devices, Profile: ssd.OptaneSSD,
	})
	if err != nil {
		log.Fatal(err)
	}
	dy := engine.NewDynamic(ctx, fwd, tr, ssd.OptaneSSD, nil, nil, nil)

	// The whole drive runs inside one ctx.Run: each Run restarts the root
	// proc's virtual clock while device busy-timelines persist, so
	// splitting batches across Runs would charge the clock catch-up on the
	// first device read of each Run to that batch's repair.
	var bfs *algo.IncBFS
	var wcc *algo.IncWCC
	applied, seals := 0, 0
	ctx.Run("main", func(p exec.Proc) {
		t0 := p.Now()
		var iters int
		bfs, iters, err = algo.NewIncBFS(sys, p, fwd, uint32(*startNode))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("initial bfs: %d iterations, %.3fms virtual\n", iters, float64(p.Now()-t0)/1e6)
		t0 = p.Now()
		wcc, iters, err = algo.NewIncWCC(sys, p, fwd, tr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("initial wcc: %d iterations, %.3fms virtual\n", iters, float64(p.Now()-t0)/1e6)

		for applied < len(us) {
			n := *batch
			if rem := len(us) - applied; n > rem {
				n = rem
			}
			for i := applied; i < applied+n; i++ {
				if err := dy.Add(us[i], ud[i]); err != nil {
					log.Fatal(err)
				}
			}
			rewritten := dy.Rewritten()
			es, ed := dy.Seal()
			rewritten = dy.Rewritten() - rewritten
			applied += n
			seals++
			t0 := p.Now()
			bi, err := bfs.Repair(sys, p, fwd, es, ed)
			if err != nil {
				log.Fatal(err)
			}
			tb := p.Now()
			wi, err := wcc.Repair(sys, p, fwd, tr, es, ed)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("batch %d: +%d edges, %d live segments (%d edges rewritten by merging); bfs repair %d iters %.3fms, wcc repair %d iters %.3fms\n",
				seals, n, dy.Segments(), rewritten, bi, float64(tb-t0)/1e6, wi, float64(p.Now()-tb)/1e6)
			if *verify {
				full, _, err := algo.BFSDepths(sys, p, fwd, uint32(*startNode))
				if err != nil {
					log.Fatal(err)
				}
				for v := range full {
					if bfs.Depth[v] != full[v] {
						log.Fatalf("verify: bfs depth(%d) = %d, full recompute says %d", v, bfs.Depth[v], full[v])
					}
				}
				fw, _, err := algo.NewIncWCC(sys, p, fwd, tr)
				if err != nil {
					log.Fatal(err)
				}
				for v := range fw.IDs {
					if wcc.IDs[v] != fw.IDs[v] {
						log.Fatalf("verify: wcc label(%d) = %d, full recompute says %d", v, wcc.IDs[v], fw.IDs[v])
					}
				}
				fmt.Printf("batch %d: verified bit-identical to full recompute\n", seals)
			}
			if *compactEvery > 0 && seals%*compactEvery == 0 {
				if err := dy.Compact(); err != nil {
					log.Fatal(err)
				}
				fmt.Printf("compacted after %d seals: |E|=%d, 0 segments\n", seals, fwd.CSR.E)
			}
		}
	})

	reach := 0
	for _, d := range bfs.Depth {
		if d >= 0 {
			reach++
		}
	}
	comp := map[uint32]struct{}{}
	for _, id := range wcc.IDs {
		comp[id] = struct{}{}
	}
	fmt.Printf("final: |E|=%d (+%d ingested), %d live segments after %d merges (%d edges rewritten), bfs reaches %d from %d, %d components\n",
		c.E+int64(applied), applied, dy.Segments(), dy.Merges(), dy.Rewritten(), reach, *startNode, len(comp))
}
