package bench

import (
	"fmt"

	"blaze/gen"
	"blaze/internal/costmodel"
	"blaze/internal/exec"
	"blaze/internal/metrics"
	"blaze/internal/registry"
	"blaze/internal/ssd"
)

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID   string
	Desc string
	Run  func(scale float64) []Table
}

// Experiments lists every table and figure runner in paper order, then
// the extension suites.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Table I: seq vs rand 4kB read bandwidth of the four SSD profiles", Table1},
		{"table2", "Table II: target datasets (generated presets)", Table2},
		{"fig1", "Fig 1: underutilized IO in FlashGraph and Graphene on Optane", Fig1},
		{"fig2", "Fig 2: idle IO periods in FlashGraph (NAND vs Optane)", Fig2},
		{"fig3", "Fig 3: skewed IO in Graphene across 8 SSDs (BFS)", Fig3},
		{"fig4", "Fig 4: single-threaded computation speed vs device bandwidth", Fig4},
		{"fig7", "Fig 7: speedup of Blaze over FlashGraph and Graphene", Fig7},
		{"fig8", "Fig 8: average read bandwidth of Blaze vs sync-based variant", Fig8},
		{"fig9", "Fig 9: thread scaling", Fig9},
		{"fig10", "Fig 10: impact of bin space (SpMV read bandwidth)", Fig10},
		{"fig11", "Fig 11: impact of bin count and scatter:gather ratio", Fig11},
		{"fig12", "Fig 12: memory footprint relative to input graph size", Fig12},
		{"ablation", "Extension: ablations of merge cap, staging buffers, page cache", Ablation},
		{"scaleout", "Extension: scale-out Blaze across machines (paper SVI sketch)", ScaleOut},
		{"incore", "Extension: out-of-core Blaze vs Ligra-style in-core engine", InCore},
		{"ext_pagecache", "Extension: page cache on repeat scans by budget", tabulate(PagecacheSnapshot, pagecacheTable)},
		{"ext_multiquery", "Extension: Q concurrent queries on one shared graph session", tabulate(MultiQuerySnapshot, multiQueryTable)},
		{"ext_serving", "Extension: serving tail latency and goodput across an offered-load sweep", tabulate(ServingSnapshot, servingTable)},
		{"ext_scaleout", "Extension: blaze-scaleout wire traffic and speedup at M=1/2/4", tabulate(ScaleoutSnapshot, scaleoutTable)},
		{"ext_ingest", "Extension: incremental repair vs full recompute after an insertion batch", tabulate(IngestSnapshot, ingestTable)},
	}
}

// tabulate is an extension suite's runner: its measurement, then its table.
func tabulate[E any](measure func(scale float64) E, table func(E) []Table) func(float64) []Table {
	return func(scale float64) []Table { return table(measure(scale)) }
}

// ExperimentByID finds a runner.
func ExperimentByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// Table1 profiles each Table I device model with 64 MB of sequential and
// of random 4 kB reads under virtual time.
func Table1(scale float64) []Table {
	t := Table{
		ID:     "table1",
		Title:  "Storage bandwidth (modeled devices, measured by 4kB reads)",
		Header: []string{"SSD", "Model", "Seq 4kB read MB/s", "Rand 4kB read MB/s"},
	}
	kinds := []string{"NAND", "Optane", "Z-NAND", "V-NAND"}
	const pages = 16384 // 64 MB
	for i, prof := range ssd.Profiles() {
		measure := func(random bool) float64 {
			ctx := exec.NewSim()
			data := make([]byte, 1<<20)
			var elapsed int64
			ctx.Run("main", func(p exec.Proc) {
				d := ssd.NewDevice(ctx, 0, prof, &ssd.MemBacking{Data: data}, nil, nil)
				buf := make([]byte, ssd.PageSize)
				r := gen.NewRNG(1)
				for j := 0; j < pages; j++ {
					pg := int64(j)
					if random {
						pg = int64(r.Intn(1 << 20))
					}
					if err := d.ReadPages(p, pg, 1, buf); err != nil {
						panic(err)
					}
				}
				elapsed = p.Now()
			})
			return float64(pages) * ssd.PageSize / (float64(elapsed) / 1e9) / 1e6
		}
		t.Add(kinds[i], prof.Name, measure(false), measure(true))
	}
	t.Notes = append(t.Notes,
		"NAND shows a large seq/rand gap; FNDs (Optane, Z-NAND, V-NAND) are near-symmetric, as in Table I.")
	return []Table{t}
}

// Table2 generates every preset and reports its measured shape.
func Table2(scale float64) []Table {
	t := Table{
		ID:    "table2",
		Title: fmt.Sprintf("Target graphs at 1/%g scale", scale),
		Header: []string{"Dataset", "Short", "|V|", "|E|", "MaxOutDeg", "Distribution",
			"ApproxDiameter", "Type", "HotEdgeFrac", "AdjBytes"},
	}
	for _, p := range gen.Presets() {
		sc := scale
		if p.Short == "hy" {
			sc = scale * 4 // hyperlink14 is ~30x the median dataset
		}
		d := MustLoad(p.Short, sc)
		// Approximate diameter: deepest BFS level from the hub vertex.
		diam := bfsDepthMax(d)
		t.Add(p.Name, p.Short, d.CSR.V, d.CSR.E, d.CSR.MaxDegree(), p.Distribution,
			diam, p.Type, d.Hot, d.CSR.AdjBytes())
	}
	t.Notes = append(t.Notes,
		"Power-law presets show max degree orders of magnitude above average; uran27 does not.",
		"Windowed presets (sk, hy) have much larger diameters, like the web crawls they stand in for.")
	return []Table{t}
}

func bfsDepthMax(d *Dataset) int {
	depth := make([]int32, d.CSR.V)
	for i := range depth {
		depth[i] = -1
	}
	depth[d.Start] = 0
	queue := []uint32{d.Start}
	max := int32(0)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		b, e := d.CSR.EdgeRange(v)
		for i := b; i < e; i++ {
			dst := readEdge(d, i)
			if depth[dst] == -1 {
				depth[dst] = depth[v] + 1
				if depth[dst] > max {
					max = depth[dst]
				}
				queue = append(queue, dst)
			}
		}
	}
	return int(max)
}

// Fig1 measures average read bandwidth of the two baselines per
// graph x query on one Optane SSD with 16 threads.
func Fig1(scale float64) []Table {
	tables := []Table{}
	for _, sysName := range []string{"flashgraph", "graphene"} {
		t := Table{
			ID:     "fig1_" + sysName,
			Title:  fmt.Sprintf("Average read bandwidth of %s on Optane (GB/s); device max %.2f GB/s", sysName, ssd.OptaneSSD.RandBytesPerSec/1e9),
			Header: append([]string{"query"}, SixGraphs...),
		}
		queries := []string{"bfs", "pr", "wcc", "spmv"}
		if sysName == "flashgraph" {
			queries = append(queries, "bc")
		}
		for _, q := range queries {
			row := []any{q}
			for _, gname := range SixGraphs {
				d := MustLoad(gname, scale)
				r := Run(d, Opts{System: sysName, Query: q})
				row = append(row, r.AvgBW()/1e9)
			}
			t.Add(row...)
		}
		t.Notes = append(t.Notes,
			"Expected shape: BFS near device bandwidth on most graphs; PR/WCC/SpMV well below it, varying by graph (paper Fig. 1).")
		tables = append(tables, t)
	}
	return tables
}

// Fig2 records FlashGraph's bandwidth timeline on NAND vs Optane for the
// computation-heavy queries on the rmat30 preset.
func Fig2(scale float64) []Table {
	var tables []Table
	summary := Table{
		ID:     "fig2_summary",
		Title:  "FlashGraph idle-IO fraction (buckets under 5% of device bandwidth)",
		Header: []string{"query", "NAND idle frac", "Optane idle frac"},
	}
	d := MustLoad("r3", scale)
	for _, q := range []string{"pr", "wcc", "spmv"} {
		idle := map[string]float64{}
		for _, dev := range []struct {
			name string
			prof ssd.Profile
		}{{"nand", ssd.NANDSSD}, {"optane", ssd.OptaneSSD}} {
			r := Run(d, Opts{System: "flashgraph", Query: q, TimelineBucketNs: 2e5, Options: registry.Options{Profile: dev.prof}})
			idle[dev.name] = r.Timeline.IdleFraction(0.05 * dev.prof.RandBytesPerSec)
			series := Table{
				ID:     fmt.Sprintf("fig2_%s_%s_timeline", q, dev.name),
				Title:  fmt.Sprintf("FlashGraph %s on %s: read bandwidth over time", q, dev.name),
				Header: []string{"t_ms", "GB/s"},
			}
			for i, bw := range r.Timeline.Series() {
				series.Add(float64(i)*float64(r.Timeline.BucketNs())/1e6, bw/1e9)
			}
			tables = append(tables, series)
		}
		summary.Add(q, idle["nand"], idle["optane"])
	}
	summary.Notes = append(summary.Notes,
		"Expected shape: near-zero idle on NAND (IO-bound), large idle windows on Optane while the message-processing straggler runs (paper Fig. 2).")
	return append([]Table{summary}, tables...)
}

// Fig3 reports Graphene's per-iteration max-min IO bytes across 8 SSDs
// running BFS on five graphs.
func Fig3(scale float64) []Table {
	var tables []Table
	summary := Table{
		ID:     "fig3_summary",
		Title:  "Graphene BFS: peak per-iteration IO skew across 8 SSDs",
		Header: []string{"graph", "peak skew bytes", "peak max/min ratio", "iterations"},
	}
	for _, gname := range []string{"r3", "ur", "tw", "sk", "fr"} {
		d := MustLoad(gname, scale)
		r := Run(d, Opts{System: "graphene", Query: "bfs", Options: registry.Options{NumDev: 8}})
		series := Table{
			ID:     "fig3_" + gname,
			Title:  fmt.Sprintf("Graphene BFS on %s: per-iteration device IO skew", d.Preset.Name),
			Header: []string{"iteration", "total bytes", "skew (max-min) bytes"},
		}
		var peak int64
		var peakRatio float64
		for i, ep := range r.IterBytes {
			var total, min, max int64
			min = 1 << 62
			for _, b := range ep {
				total += b
				if b < min {
					min = b
				}
				if b > max {
					max = b
				}
			}
			sk := metrics.Skew(ep)
			series.Add(i, total, sk)
			if sk > peak {
				peak = sk
			}
			if min > 0 && total > int64(len(ep))*ssd.PageSize*4 {
				if ratio := float64(max) / float64(min); ratio > peakRatio {
					peakRatio = ratio
				}
			}
		}
		summary.Add(gname, peak, peakRatio, len(r.IterBytes))
		tables = append(tables, series)
	}
	summary.Notes = append(summary.Notes,
		"Expected shape: power-law graphs skew by orders of magnitude more bytes than uran27 (paper Fig. 3: >100MB vs <1MB; scaled here).")
	return append([]Table{summary}, tables...)
}

// Fig4 compares single-compute-thread processing speed against device
// bandwidth lines by running Blaze with 1 scatter + 1 gather proc on a
// device fast enough to never be the bottleneck.
func Fig4(scale float64) []Table {
	t := Table{
		ID:    "fig4",
		Title: "Single-threaded computation speed (GB/s of edge data)",
		Header: []string{"query", "rmat27", "uran27", "twitter", "sk2005",
			"NAND line", "Optane line"},
	}
	fast := ssd.OptaneSSD.Scale(1000) // IO never the bottleneck
	for _, q := range []string{"bfs", "bc", "pr"} {
		row := []any{q}
		for _, gname := range []string{"r2", "ur", "tw", "sk"} {
			d := MustLoad(gname, scale)
			r := Run(d, Opts{System: "blaze", Query: q, Options: registry.Options{Profile: fast, Workers: 2}})
			row = append(row, r.AvgBW()/1e9)
		}
		row = append(row, ssd.NANDSSD.RandBytesPerSec/1e9, ssd.OptaneSSD.RandBytesPerSec/1e9)
		t.Add(row...)
	}
	t.Notes = append(t.Notes,
		"Expected shape: single-threaded computation outruns NAND on most workloads but never keeps up with Optane (paper Fig. 4).")
	return []Table{t}
}

// optaneGBs is the red line used across figures.
var optaneGBs = ssd.OptaneSSD.RandBytesPerSec / 1e9

// defaultModel is printed with experiments for reproducibility.
func modelNote() string {
	m := costmodel.Default()
	return fmt.Sprintf("cost model (ns): edgeScan=%d recordAppend=%d gatherUpdate=%d randomUpdate=%d msgProcess=%d atomicExtra=%d hotContention=%d msgEnqueue=%d pageOverhead=%d ioSubmit=%d+%d/page vertexOp=%d localityDiscount=%.2f",
		m.EdgeScan, m.RecordAppend, m.GatherUpdate, m.RandomUpdate, m.MsgProcess,
		m.AtomicExtra, m.HotContention, m.MsgEnqueue, m.PageOverhead,
		m.IOSubmitBase, m.IOSubmitPerPage, m.VertexOp, m.LocalityDiscount)
}
