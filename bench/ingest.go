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
//
// It then keeps sealing — IngestSeals batches in all, the later ones a
// thirty-second of the first, which is the size sequence that leaves the
// most segments tiering allows — and takes the same pair again, plus the
// full recompute after Compact: what the segments that tiering leaves
// cost a query, against having none.

// IngestRepairSpeedupFloor is the CI bound on full-recompute/repair for
// BFS after a 1%-of-|E| insertion batch: repairing from the affected
// frontier must be at least this many times faster than recomputing.
const IngestRepairSpeedupFloor = 2.0

// IngestMaxSegments and IngestTieredSlowdownCeil are the CI bounds on the
// overlay after IngestSeals seals: at most this many live segments
// (⌈log₂ IngestSeals⌉ + 1), and a full recompute over them at most this
// many times the compacted graph's. Untiered, the same 32 segments cost
// BFS 1.36× and WCC 1.77× the compacted run; tiered they cost 1.01× and
// 1.11×.
const (
	IngestMaxSegments        = 6
	IngestTieredSlowdownCeil = 1.25
)

// IngestGraph is the dataset the ingest suite measures.
const IngestGraph = "r2"

// IngestBatchFrac sizes the first insertion batch as a fraction of |E|.
const IngestBatchFrac = 0.01

// IngestSeals is how many batches the suite has sealed when it measures
// the second time.
const IngestSeals = 32

// IngestEntry pairs, for one query at one point of the insertion stream,
// the virtual-time cost of repairing its answer after the latest batch
// with the cost of recomputing it over the overlay.
type IngestEntry struct {
	Query    string // "bfs", "wcc"
	Seals    int    // batches sealed so far
	Segments int    // live segments the overlay carries
	RepairNs int64
	FullNs   int64
	// CompactedNs is the full recompute once Compact has folded the
	// segments away; taken after the last seal only (0 elsewhere).
	CompactedNs int64
	// WriteAmp is edges rewritten by tiering merges over edges sealed.
	WriteAmp float64
}

// IngestSnapshot builds the dynamic overlay and returns paired repair/full
// measurements for BFS and WCC under the blaze engine, after one sealed
// batch and after IngestSeals. Like Run, it treats a failed query as fatal.
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
	var out []IngestEntry
	ctx.Run("main", func(p exec.Proc) {
		bfs, _, err := algo.NewIncBFS(sys, p, fwd, d.Start)
		check(err)
		wcc, _, err := algo.NewIncWCC(sys, p, fwd, tr)
		check(err)

		// Batches of deterministic pseudo-random edges; sealed counts them.
		r := gen.NewRNG(42)
		var sealed int64
		seal := func(n int) (es, ed []uint32) {
			for i := 0; i < n; i++ {
				check(dy.Add(uint32(r.Intn(int(d.CSR.V))), uint32(r.Intn(int(d.CSR.V)))))
			}
			sealed += int64(n)
			return dy.Seal()
		}
		// fullBFS and fullWCC time a from-scratch run over whatever fwd and
		// tr hold, and check the maintained answers against it.
		fullBFS := func() int64 {
			t := p.Now()
			full, _, err := algo.BFSDepths(sys, p, fwd, d.Start)
			check(err)
			ns := p.Now() - t
			for v := range full {
				if bfs.Depth[v] != full[v] {
					check(fmt.Errorf("repaired bfs depth(%d) = %d, full recompute says %d", v, bfs.Depth[v], full[v]))
				}
			}
			return ns
		}
		fullWCC := func() int64 {
			t := p.Now()
			full, _, err := algo.NewIncWCC(sys, p, fwd, tr)
			check(err)
			ns := p.Now() - t
			for v := range full.IDs {
				if wcc.IDs[v] != full.IDs[v] {
					check(fmt.Errorf("repaired wcc label(%d) = %d, full recompute says %d", v, wcc.IDs[v], full.IDs[v]))
				}
			}
			return ns
		}
		// measure repairs both queries from the batch just sealed and
		// recomputes each over the identical base+segment overlay;
		// virtual-time deltas around each isolate the per-query cost.
		measure := func(seals int, es, ed []uint32) (bfsE, wccE IngestEntry) {
			bfsE = IngestEntry{Query: "bfs", Seals: seals, Segments: dy.Segments(), WriteAmp: float64(dy.Rewritten()) / float64(sealed)}
			wccE = bfsE
			wccE.Query = "wcc"
			t := p.Now()
			_, err := bfs.Repair(sys, p, fwd, es, ed)
			check(err)
			bfsE.RepairNs = p.Now() - t
			bfsE.FullNs = fullBFS()
			t = p.Now()
			_, err = wcc.Repair(sys, p, fwd, tr, es, ed)
			check(err)
			wccE.RepairNs = p.Now() - t
			wccE.FullNs = fullWCC()
			return bfsE, wccE
		}

		batch := max(int(float64(d.CSR.E)*IngestBatchFrac), 1)
		es, ed := seal(batch)
		bfsE, wccE := measure(1, es, ed)
		out = append(out, bfsE, wccE)

		small := max(batch/IngestSeals, 1)
		for i := 2; i < IngestSeals; i++ {
			es, ed = seal(small)
			_, err = bfs.Repair(sys, p, fwd, es, ed)
			check(err)
			_, err = wcc.Repair(sys, p, fwd, tr, es, ed)
			check(err)
		}
		es, ed = seal(small)
		bfsE, wccE = measure(IngestSeals, es, ed)
		check(dy.Compact())
		bfsE.CompactedNs = fullBFS()
		wccE.CompactedNs = fullWCC()
		out = append(out, bfsE, wccE)
	})
	return out
}

// ExtIngest tabulates IngestSnapshot.
func ExtIngest(scale float64) []Table {
	t := Table{
		ID:    "ext_ingest",
		Title: "Incremental repair vs full recompute after sealing a 1%-of-|E| insertion batch, and after 32 tiered seals (blaze, rmat27 preset)",
		Header: []string{"query", "repair ms", "full recompute ms", "repair speedup",
			"seals", "segments", "compacted recompute ms", "rewritten/sealed edges"},
	}
	for _, e := range IngestSnapshot(scale) {
		compacted := any("-") // not taken: compacting would end the stream's segments
		if e.CompactedNs != 0 {
			compacted = float64(e.CompactedNs) / 1e6
		}
		t.Add(e.Query, float64(e.RepairNs)/1e6, float64(e.FullNs)/1e6, float64(e.FullNs)/float64(e.RepairNs),
			e.Seals, e.Segments, compacted, e.WriteAmp)
	}
	t.Notes = append(t.Notes,
		"Both paths converge to bit-identical answers over the same base+segment overlay (checked on every run); only the work differs.",
		"Batches 2-32 are each 1/32 of the first: the size sequence that leaves the most segments tiering allows. Seals and their merges are free in model time; rewritten/sealed is what the merges cost in edges written.")
	return []Table{t}
}
