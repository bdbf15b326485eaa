package bench

import (
	"fmt"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/registry"
	"blaze/internal/ssd"
)

// The ingest suite measures what incremental repair buys over full
// recomputation on a dynamic graph: after a batch of edge insertions
// (1% of |E|) seals into delta segments, BFS depths and WCC labels are
// re-converged twice over the same base+segment overlay — once from the
// affected frontier (IncBFS/IncWCC.Repair) and once from scratch — and
// the suite records both virtual-time costs side by side. Because
// both formulations are monotone with canonical fixed points, the two
// paths end bit-identical; only the work differs.

// IngestRepairSpeedupFloor is the CI bound on full-recompute/repair for
// BFS after a 1%-of-|E| insertion batch: repairing from the affected
// frontier must be at least this many times faster than recomputing.
const IngestRepairSpeedupFloor = 2.0

// IngestGraph is the dataset the ingest suite measures.
const IngestGraph = "r2"

// IngestBatchFrac sizes the insertion batch as a fraction of |E|.
const IngestBatchFrac = 0.01

// IngestEntry pairs, for one query, the virtual-time cost of repairing
// its answer after the insertion batch with the cost of recomputing it.
type IngestEntry struct {
	Query    string // "bfs", "wcc"
	RepairNs int64
	FullNs   int64
}

// IngestSnapshot builds the dynamic overlay, seals one 1% insertion
// batch, and returns paired repair/full measurements for BFS and WCC under
// the blaze engine. Like Run, it treats a failed query as fatal.
func IngestSnapshot(scale float64) []IngestEntry {
	d := MustLoad(IngestGraph, scale)
	ctx := exec.NewSim()
	fwd, tr := d.Graphs(ctx, 1, ssd.OptaneSSD, nil, nil)
	sys, err := registry.New("blaze", ctx, registry.Options{
		Edges: d.CSR.E, Workers: 16, NumDev: 1, Profile: ssd.OptaneSSD,
	})
	check := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("bench: ingest: %v", err))
		}
	}
	check(err)
	dy := engine.NewDynamic(ctx, fwd, tr, ssd.OptaneSSD, nil, nil, nil)

	// Everything — initial convergence, sealing, repair, full recompute —
	// runs inside ONE ctx.Run: each Run restarts the root proc's clock at
	// zero while device busy-timelines persist, so a measurement window
	// that opens in a later Run would charge the clock catch-up on the
	// first device read to whichever path runs first.
	bfsE, wccE := IngestEntry{Query: "bfs"}, IngestEntry{Query: "wcc"}
	ctx.Run("main", func(p exec.Proc) {
		bfs, _, err := algo.NewIncBFS(sys, p, fwd, d.Start)
		check(err)
		wcc, _, err := algo.NewIncWCC(sys, p, fwd, tr)
		check(err)

		// One sealed batch of 1% of |E| deterministic pseudo-random edges.
		batch := int(float64(d.CSR.E) * IngestBatchFrac)
		if batch < 1 {
			batch = 1
		}
		r := gen.NewRNG(42)
		for i := 0; i < batch; i++ {
			check(dy.Add(uint32(r.Intn(int(d.CSR.V))), uint32(r.Intn(int(d.CSR.V)))))
		}
		es, ed := dy.Seal()

		// Both paths run over the identical base+segment overlay;
		// virtual-time deltas around each isolate the per-query cost.
		t0 := p.Now()
		_, err = bfs.Repair(sys, p, fwd, es, ed)
		check(err)
		t1 := p.Now()
		bfsE.RepairNs = t1 - t0
		full, _, err := algo.BFSDepths(sys, p, fwd, d.Start)
		check(err)
		bfsE.FullNs = p.Now() - t1
		for v := range full {
			if bfs.Depth[v] != full[v] {
				check(fmt.Errorf("repaired bfs depth(%d) = %d, full recompute says %d", v, bfs.Depth[v], full[v]))
			}
		}
		t2 := p.Now() // after the comparison sweep, which no window charges
		_, err = wcc.Repair(sys, p, fwd, tr, es, ed)
		check(err)
		t3 := p.Now()
		wccE.RepairNs = t3 - t2
		fullWCC, _, err := algo.NewIncWCC(sys, p, fwd, tr)
		check(err)
		wccE.FullNs = p.Now() - t3
		for v := range fullWCC.IDs {
			if wcc.IDs[v] != fullWCC.IDs[v] {
				check(fmt.Errorf("repaired wcc label(%d) = %d, full recompute says %d", v, wcc.IDs[v], fullWCC.IDs[v]))
			}
		}
	})
	return []IngestEntry{bfsE, wccE}
}

// ExtIngest tabulates IngestSnapshot.
func ExtIngest(scale float64) []Table {
	t := Table{
		ID:     "ext_ingest",
		Title:  "Incremental repair vs full recompute after sealing a 1%-of-|E| insertion batch (blaze, rmat27 preset)",
		Header: []string{"query", "repair ms", "full recompute ms", "repair speedup"},
	}
	for _, e := range IngestSnapshot(scale) {
		t.Add(e.Query, float64(e.RepairNs)/1e6, float64(e.FullNs)/1e6, float64(e.FullNs)/float64(e.RepairNs))
	}
	t.Notes = append(t.Notes,
		"Both paths converge to bit-identical answers over the same base+segment overlay (checked on every run); only the work differs.")
	return []Table{t}
}
