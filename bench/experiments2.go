package bench

import (
	"fmt"

	"blaze/internal/graph"
	"blaze/internal/registry"
)

func readEdge(d *Dataset, i int64) uint32 { return graph.GetEdge(d.CSR.Adj, i) }

// Fig7 measures the speedup of Blaze over FlashGraph and Graphene on the
// six graphs and five queries. Against Graphene, PR runs one iteration (as
// in the paper, because Graphene lacks selective scheduling for PR), and
// BC is omitted (Graphene does not implement it).
func Fig7(scale float64) []Table {
	vsFG := Table{
		ID:     "fig7_vs_flashgraph",
		Title:  "Speedup of Blaze over FlashGraph (runtime ratio)",
		Header: append([]string{"query"}, SixGraphs...),
	}
	vsGR := Table{
		ID:     "fig7_vs_graphene",
		Title:  "Speedup of Blaze over Graphene (runtime ratio; PR = 1 iteration)",
		Header: append([]string{"query"}, SixGraphs...),
	}
	for _, q := range Queries {
		rowFG := []any{q}
		for _, gname := range SixGraphs {
			d := MustLoad(gname, scale)
			b := Run(d, Opts{System: "blaze", Query: q})
			f := Run(d, Opts{System: "flashgraph", Query: q})
			rowFG = append(rowFG, float64(f.ElapsedNs)/float64(b.ElapsedNs))
		}
		vsFG.Add(rowFG...)
	}
	for _, q := range []string{"bfs", "pr1", "wcc", "spmv"} {
		rowGR := []any{q}
		for _, gname := range SixGraphs {
			d := MustLoad(gname, scale)
			b := Run(d, Opts{System: "blaze", Query: q})
			g := Run(d, Opts{System: "graphene", Query: q})
			rowGR = append(rowGR, float64(g.ElapsedNs)/float64(b.ElapsedNs))
		}
		vsGR.Add(rowGR...)
	}
	vsFG.Notes = append(vsFG.Notes,
		"Expected shape: large speedups on computation-heavy queries over power-law graphs (paper: up to 13.6x on PR/rmat30); ~1x or slightly below on sk2005 where FlashGraph's LRU page cache wins (paper: 12-20% slower).",
		modelNote())
	vsGR.Notes = append(vsGR.Notes,
		"Expected shape: consistent speedups (paper: 1.6-7.9x).")
	return []Table{vsFG, vsGR}
}

// Fig8 reports average read bandwidth of Blaze and of its
// synchronization-based variant on all workloads.
func Fig8(scale float64) []Table {
	mk := func(system, id, title string) Table {
		t := Table{
			ID:     id,
			Title:  fmt.Sprintf("%s (GB/s; device max %.2f GB/s)", title, optaneGBs),
			Header: append([]string{"query"}, SixGraphs...),
		}
		for _, q := range Queries {
			row := []any{q}
			for _, gname := range SixGraphs {
				d := MustLoad(gname, scale)
				r := Run(d, Opts{System: system, Query: q})
				row = append(row, r.AvgBW()/1e9)
			}
			t.Add(row...)
		}
		return t
	}
	a := mk("blaze", "fig8_blaze", "Average read bandwidth of Blaze on Optane")
	b := mk("blaze-sync", "fig8_sync", "Average read bandwidth of the synchronization-based variant")
	a.Notes = append(a.Notes,
		"Expected shape: Blaze near device bandwidth on all workloads; the sync variant reaches only 38-85% on computation-heavy queries (paper Fig. 8).")
	return []Table{a, b}
}

// Fig9 sweeps the computation thread count (2..16) per graph x query and
// reports processing time.
func Fig9(scale float64) []Table {
	threads := []int{2, 4, 8, 16}
	var tables []Table
	for _, gname := range SixGraphs {
		d := MustLoad(gname, scale)
		t := Table{
			ID:     "fig9_" + gname,
			Title:  fmt.Sprintf("Thread scaling on %s: processing time (ms)", d.Preset.Name),
			Header: []string{"query", "2", "4", "8", "16"},
		}
		for _, q := range Queries {
			row := []any{q}
			for _, n := range threads {
				r := Run(d, Opts{System: "blaze", Query: q, Options: registry.Options{Workers: n}})
				row = append(row, float64(r.ElapsedNs)/1e6)
			}
			t.Add(row...)
		}
		t.Notes = append(t.Notes,
			"Expected shape: near-linear scaling until IO saturates; high-locality graphs saturate with few threads (paper Fig. 9).")
		tables = append(tables, t)
	}
	return tables
}

// Fig10 sweeps the total bin space for SpMV on every graph.
func Fig10(scale float64) []Table {
	// The paper sweeps 16MB..1GB on full-size graphs; scaled down by the
	// dataset scale so the sweep crosses the same records-per-buffer
	// regimes.
	sizes := []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20}
	t := Table{
		ID:     "fig10",
		Title:  "SpMV average read bandwidth (GB/s) vs total bin space",
		Header: []string{"graph", "64K", "256K", "1M", "4M", "16M", "64M"},
	}
	for _, gname := range SixGraphs {
		row := []any{gname}
		d := MustLoad(gname, scale)
		for _, sz := range sizes {
			r := Run(d, Opts{System: "blaze", Query: "spmv", Options: registry.Options{BinSpaceBytes: sz}})
			row = append(row, r.AvgBW()/1e9)
		}
		t.Add(row...)
	}
	t.Notes = append(t.Notes,
		"Expected shape: bandwidth plateaus once bin space passes a few bytes per edge; tiny bins serialize scatter and gather (paper Fig. 10).")
	return []Table{t}
}

// Fig11 sweeps bin count and the scatter:gather thread ratio on the rmat27
// preset with 16 threads.
func Fig11(scale float64) []Table {
	d := MustLoad("r2", scale)
	counts := Table{
		ID:     "fig11_bincount",
		Title:  "Processing time (ms) vs bin count (rmat27 preset, 16 threads)",
		Header: []string{"query", "4", "16", "64", "256", "1024", "4096", "16384", "65536", "131072"},
	}
	binCounts := []int{4, 16, 64, 256, 1024, 4096, 16384, 65536, 131072}
	for _, q := range Queries {
		row := []any{q}
		for _, bc := range binCounts {
			r := Run(d, Opts{System: "blaze", Query: q, Options: registry.Options{BinCount: bc, BinSpaceBytes: 16 << 20}})
			row = append(row, float64(r.ElapsedNs)/1e6)
		}
		counts.Add(row...)
	}
	counts.Notes = append(counts.Notes,
		"Expected shape: flat across a wide middle range; worse at both extremes (paper Fig. 11 left).")

	ratios := Table{
		ID:     "fig11_ratio",
		Title:  "Processing time (ms) vs scatter:gather split of 16 threads (rmat27 preset)",
		Header: []string{"query", "2:14", "4:12", "6:10", "8:8", "10:6", "12:4", "14:2"},
	}
	splits := []float64{2.0 / 16, 4.0 / 16, 6.0 / 16, 8.0 / 16, 10.0 / 16, 12.0 / 16, 14.0 / 16}
	for _, q := range Queries {
		row := []any{q}
		for _, ratio := range splits {
			r := Run(d, Opts{System: "blaze", Query: q, Options: registry.Options{Ratio: ratio}})
			row = append(row, float64(r.ElapsedNs)/1e6)
		}
		ratios.Add(row...)
	}
	ratios.Notes = append(ratios.Notes,
		"Expected shape: low and flat around balanced splits, rising sharply when one side is starved (paper Fig. 11 right).")
	return []Table{counts, ratios}
}

// Fig12 reports the memory footprint of each workload relative to its
// input graph size, including hyperlink14.
func Fig12(scale float64) []Table {
	graphs := append(append([]string{}, SixGraphs...), "hy")
	t := Table{
		ID:     "fig12",
		Title:  "Memory footprint as % of input graph size",
		Header: append([]string{"query"}, graphs...),
	}
	for _, q := range Queries {
		row := []any{q}
		for _, gname := range graphs {
			sc := scale
			if gname == "hy" {
				sc = scale * 4
			}
			d := MustLoad(gname, sc)
			// Scale the fixed budgets (64 MB IO buffers, ~256 MB bin
			// space on the testbed) like the datasets, so the footprint
			// ratio is comparable to the paper's.
			r := Run(d, Opts{System: "blaze", Query: q, Options: registry.Options{
				IOBufferBytes: maxI64(128<<10, int64(64<<20/sc)),
				BinSpaceBytes: maxI64(64<<10, int64(256<<20/sc)),
			}})
			total := r.Mem.Total()
			row = append(row, 100*float64(total)/float64(d.CSR.TotalBytes()))
		}
		t.Add(row...)
	}
	t.Notes = append(t.Notes,
		"Expected shape: 10-34% depending on query; BFS smallest (one array), PR three float arrays, BC largest due to per-level frontiers (paper Fig. 12 / §V-F).")
	return []Table{t}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
