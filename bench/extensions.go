package bench

import (
	"fmt"

	"blaze/algo"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/inmem"
	"blaze/internal/metrics"
	"blaze/internal/pagecache"
	"blaze/internal/registry"
	"blaze/internal/ssd"
)

// Ablation quantifies Blaze's individual design choices by disabling or
// perturbing one at a time (DESIGN.md lists these as the ablation suite):
//
//   - page-merge cap: requests of 1, 4 (paper), and 32 pages;
//   - per-proc staging buffers: capacity 1 (no batching) vs 8 (paper);
//   - the page-cache extension (paper future work) on the high-locality
//     sk2005 preset, against FlashGraph's cached BFS.
func Ablation(scale float64) []Table {
	merge := Table{
		ID:     "ablation_merge",
		Title:  "IO merge cap: BFS time (ms) with requests of at most N pages (rmat27 preset)",
		Header: []string{"graph", "1 page", "4 pages (paper)", "32 pages"},
	}
	for _, gname := range []string{"r2", "sk"} {
		d := MustLoad(gname, scale)
		row := []any{gname}
		for _, cap := range []int{1, 4, 32} {
			r := runWithEngine(d, "bfs", func(c *engine.Config) { c.MaxMergePages = cap })
			row = append(row, float64(r.ElapsedNs)/1e6)
		}
		merge.Add(row...)
	}
	merge.Notes = append(merge.Notes,
		"Expected shape: 4-page merging beats single-page submission via fewer submits and sequential device rates; giant requests add little on FNDs (§IV-C).")

	staging := Table{
		ID:     "ablation_staging",
		Title:  "Per-proc staging buffers: SpMV time (ms) by stage capacity (rmat27 preset)",
		Header: []string{"graph", "cap 1 (unbatched)", "cap 8 (paper)", "cap 64"},
	}
	for _, gname := range []string{"r2", "ur"} {
		d := MustLoad(gname, scale)
		row := []any{gname}
		for _, cap := range []int{1, 8, 64} {
			r := runWithEngine(d, "spmv", func(c *engine.Config) { c.StageCap = cap })
			row = append(row, float64(r.ElapsedNs)/1e6)
		}
		staging.Add(row...)
	}
	staging.Notes = append(staging.Notes,
		"Expected shape: unbatched appends pay the bin handoff per record; capacity 8 amortizes it (the paper's per-CPU buffer, §IV-A).")

	cache := Table{
		ID:     "ablation_pagecache",
		Title:  "Page-cache ablation on the high-locality sk2005 preset: BFS time (ms) by cache size",
		Header: []string{"system", "time ms", "hit rate %", "read MB"},
	}
	d := MustLoad("sk", scale)
	noCache := Run(d, Opts{System: "blaze", Query: "bfs"})
	cache.Add("blaze (paper: no cache)",
		float64(noCache.ElapsedNs)/1e6, 0.0, float64(noCache.ReadBytes)/1e6)
	// Cache budgets track the scaled dataset: a quarter of the adjacency
	// (eviction pressure) and twice the adjacency (capacity ceiling; the
	// headroom absorbs CLOCK's per-shard hash imbalance).
	pageBytes := d.CSR.NumPages() * int64(ssd.PageSize)
	for _, frac := range []struct {
		name   string
		budget int64
	}{{"1/4 graph", pageBytes / 4}, {"2x graph", 2 * pageBytes}} {
		pc := pagecache.New(frac.budget)
		r := Run(d, Opts{System: "blaze", Query: "bfs", Options: registry.Options{PageCache: pc}})
		st := pc.StatsDetail()
		cache.Add(fmt.Sprintf("blaze + clock cache (%s)", frac.name),
			float64(r.ElapsedNs)/1e6, 100*st.HitRate(), float64(r.ReadBytes)/1e6)
	}
	fg := Run(d, Opts{System: "flashgraph", Query: "bfs"})
	cache.Add("flashgraph (LRU cache built in)", float64(fg.ElapsedNs)/1e6, 0.0, float64(fg.ReadBytes)/1e6)
	cache.Notes = append(cache.Notes,
		"The paper leaves better eviction policies as future work (SV-B); the extension closes the sk2005 gap to FlashGraph.",
		"A quarter-adjacency budget reaches the same hit rate as the 2x budget, where nothing is ever evicted: what BFS re-reads it re-reads soon, so the pages a small cache evicts are not asked for again (and the ghost list never fires).")

	return []Table{merge, staging, cache}
}

// runWithEngine measures one Blaze run with an engine-config mutation.
func runWithEngine(d *Dataset, query string, mutate func(*engine.Config)) Result {
	ctx := exec.NewSim()
	stats := metrics.NewIOStats(1)
	out, in := d.Graphs(ctx, 1, ssd.OptaneSSD, stats, nil)
	cfg := registry.Options{Edges: d.CSR.E, Stats: stats}.WithDefaults().BlazeConfig()
	mutate(&cfg)
	sys := algo.NewBlaze(ctx, cfg)
	res := Result{Graph: d.Preset.Short}
	ctx.Run("main", func(p exec.Proc) {
		algo.Must(runQuery(sys, p, query, out, in, d.Start, 15))
	})
	res.ElapsedNs = ctx.End
	res.ReadBytes = stats.TotalBytes()
	return res
}

// ScaleOut measures the paper's §VI future-work design: M one-Optane
// machines over a destination-hash-partitioned graph, local binning, and
// an inter-iteration sparse-delta exchange (serialized frontier updates,
// one message per peer) over a modeled 25 Gb/s full-duplex interconnect.
func ScaleOut(scale float64) []Table {
	t := Table{
		ID:     "scaleout",
		Title:  "Scale-out Blaze (§VI sketch): processing time (ms) by machine count",
		Header: []string{"graph/query", "1", "2", "4", "8"},
	}
	for _, w := range []struct{ gname, q string }{
		{"r3", "spmv"}, {"r3", "pr"}, {"tw", "bfs"}, {"ur", "wcc"},
	} {
		d := MustLoad(w.gname, scale)
		row := []any{fmt.Sprintf("%s/%s", w.gname, w.q)}
		for _, m := range []int{1, 2, 4, 8} {
			r := Run(d, Opts{System: "blaze-scaleout", Query: w.q, Options: registry.Options{Machines: m}})
			row = append(row, float64(r.ElapsedNs)/1e6)
		}
		t.Add(row...)
	}
	t.Notes = append(t.Notes,
		"Expected shape: dense IO-bound queries scale with aggregate device bandwidth; traversal queries flatten earlier as broadcast latency and per-iteration fixed costs stop shrinking.")
	return []Table{t}
}

// InCore compares out-of-core Blaze on one Optane against a Ligra-style
// in-core engine on the same workloads, with the DRAM cost of each — the
// trade-off §II motivates out-of-core processing with, and the reason
// in-core frameworks cannot run hyperlink14 at all (§V-F).
func InCore(scale float64) []Table {
	t := Table{
		ID:    "incore",
		Title: "Out-of-core Blaze vs Ligra-style in-core engine",
		Header: []string{"graph/query", "blaze ms", "in-core ms", "in-core speedup",
			"blaze DRAM %graph", "in-core DRAM %graph"},
	}
	for _, w := range []struct{ gname, q string }{
		{"r2", "pr"}, {"r2", "bfs"}, {"r3", "spmv"}, {"tw", "wcc"},
	} {
		d := MustLoad(w.gname, scale)
		bl := Run(d, Opts{System: "blaze", Query: w.q})
		inTime := Run(d, Opts{System: "inmem", Query: w.q}).ElapsedNs

		// DRAM columns are the scale-free parts (vertex arrays + graph
		// metadata, and for in-core the adjacency itself); the fixed
		// pools (64 MB buffers + 256 MB bins) add <4% on the paper's
		// full-size graphs and are excluded so the ratio is comparable.
		graphBytes := float64(d.CSR.TotalBytes())
		blazeDRAM := float64(d.CSR.IndexBytes() + bl.AlgoBytes)
		inDRAM := float64(inmem.MemBytes(d.CSR) + bl.AlgoBytes)
		if w.q == "wcc" || w.q == "bc" {
			blazeDRAM += float64(d.Tr.IndexBytes())
			inDRAM += float64(inmem.MemBytes(d.Tr))
		}
		t.Add(fmt.Sprintf("%s/%s", w.gname, w.q),
			float64(bl.ElapsedNs)/1e6, float64(inTime)/1e6,
			float64(bl.ElapsedNs)/float64(inTime),
			100*blazeDRAM/graphBytes, 100*inDRAM/graphBytes)
	}
	t.Notes = append(t.Notes,
		"In-core needs the whole graph in DRAM (>=100%, OOM on hyperlink14-class inputs, SV-F) while Blaze keeps 10-35%.",
		"On traversals the in-core engine wins outright (no page-granularity amplification); on update-heavy queries Blaze matches or beats it despite doing IO, because atomic-free binning outruns CAS updates once the device is no longer the bottleneck -- the paper's central claim from the other direction.")
	return []Table{t}
}
