// Benchmarks regenerating each of the paper's tables and figures in
// miniature. Every benchmark runs a representative slice of the matching
// experiment under the deterministic virtual-time backend and reports the
// figure's headline metric via b.ReportMetric:
//
//	go test -bench=. -benchmem
//
// The full-resolution artifacts come from cmd/blaze-bench (see
// EXPERIMENTS.md); these benches exist so `go test -bench` exercises every
// experiment path and tracks regressions in the modeled results.
package blaze_test

import (
	"testing"

	"blaze/bench"
	"blaze/internal/registry"
	"blaze/internal/ssd"
)

// benchScale keeps the `go test -bench` suite to seconds; blaze-bench runs
// the full resolution.
const benchScale = 16384

func report(b *testing.B, name string, v float64) {
	b.Helper()
	b.ReportMetric(v, name)
}

// BenchmarkTable1DeviceProfiles measures the modeled seq/rand bandwidth of
// the Table I devices.
func BenchmarkTable1DeviceProfiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables := bench.Table1(benchScale)
		if len(tables[0].Rows) != 4 {
			b.Fatal("bad table1")
		}
	}
}

// BenchmarkTable2Datasets generates the dataset presets and derives their
// Table II statistics.
func BenchmarkTable2Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table2(benchScale)
	}
}

// BenchmarkFig1FlashGraphUtilization reports FlashGraph's PR bandwidth
// utilization on the rmat27 preset (the paper's headline underutilization).
func BenchmarkFig1FlashGraphUtilization(b *testing.B) {
	d := bench.MustLoad("r2", benchScale)
	var util float64
	for i := 0; i < b.N; i++ {
		r := bench.Run(d, bench.Opts{System: "flashgraph", Query: "pr", PRIters: 5})
		util = r.AvgBW() / ssd.OptaneSSD.RandBytesPerSec
	}
	report(b, "util", util)
}

// BenchmarkFig2IdleFraction reports FlashGraph's idle-IO fraction on Optane.
func BenchmarkFig2IdleFraction(b *testing.B) {
	d := bench.MustLoad("r2", benchScale)
	var idle float64
	for i := 0; i < b.N; i++ {
		r := bench.Run(d, bench.Opts{System: "flashgraph", Query: "pr", PRIters: 5, TimelineBucketNs: 2e5})
		idle = r.Timeline.IdleFraction(0.05 * ssd.OptaneSSD.RandBytesPerSec)
	}
	report(b, "idle-frac", idle)
}

// BenchmarkFig3GrapheneSkew reports Graphene's peak per-iteration IO skew
// across 8 devices on BFS.
func BenchmarkFig3GrapheneSkew(b *testing.B) {
	d := bench.MustLoad("r2", benchScale)
	var peak float64
	for i := 0; i < b.N; i++ {
		r := bench.Run(d, bench.Opts{System: "graphene", Query: "bfs", Options: registry.Options{NumDev: 8}})
		peak = 0
		for _, ep := range r.IterBytes {
			min, max := int64(1)<<62, int64(0)
			for _, x := range ep {
				if x < min {
					min = x
				}
				if x > max {
					max = x
				}
			}
			if s := float64(max - min); s > peak {
				peak = s
			}
		}
	}
	report(b, "peak-skew-bytes", peak)
}

// BenchmarkFig4SingleThreadCompute reports the single-compute-proc
// processing speed in GB/s of edge data (BFS on rmat27 preset).
func BenchmarkFig4SingleThreadCompute(b *testing.B) {
	d := bench.MustLoad("r2", benchScale)
	fast := ssd.OptaneSSD.Scale(1000)
	var gbs float64
	for i := 0; i < b.N; i++ {
		r := bench.Run(d, bench.Opts{System: "blaze", Query: "bfs", Options: registry.Options{Profile: fast, Workers: 2}})
		gbs = r.AvgBW() / 1e9
	}
	report(b, "GB/s", gbs)
}

// BenchmarkFig7SpeedupVsFlashGraph reports Blaze's SpMV speedup over
// FlashGraph on the rmat27 preset.
func BenchmarkFig7SpeedupVsFlashGraph(b *testing.B) {
	d := bench.MustLoad("r2", benchScale)
	var speedup float64
	for i := 0; i < b.N; i++ {
		bl := bench.Run(d, bench.Opts{System: "blaze", Query: "spmv"})
		fg := bench.Run(d, bench.Opts{System: "flashgraph", Query: "spmv"})
		speedup = float64(fg.ElapsedNs) / float64(bl.ElapsedNs)
	}
	report(b, "speedup", speedup)
}

// BenchmarkFig7SpeedupVsGraphene reports Blaze's one-iteration-PR speedup
// over Graphene on the rmat27 preset.
func BenchmarkFig7SpeedupVsGraphene(b *testing.B) {
	d := bench.MustLoad("r2", benchScale)
	var speedup float64
	for i := 0; i < b.N; i++ {
		bl := bench.Run(d, bench.Opts{System: "blaze", Query: "pr1"})
		gr := bench.Run(d, bench.Opts{System: "graphene", Query: "pr1"})
		speedup = float64(gr.ElapsedNs) / float64(bl.ElapsedNs)
	}
	report(b, "speedup", speedup)
}

// BenchmarkFig8BlazeSaturation reports Blaze's SpMV bandwidth utilization
// (the paper's headline: near 100%).
func BenchmarkFig8BlazeSaturation(b *testing.B) {
	d := bench.MustLoad("r2", benchScale)
	var util float64
	for i := 0; i < b.N; i++ {
		r := bench.Run(d, bench.Opts{System: "blaze", Query: "spmv"})
		util = r.AvgBW() / ssd.OptaneSSD.RandBytesPerSec
	}
	report(b, "util", util)
}

// BenchmarkFig8SyncVariant reports the sync-based variant's utilization on
// the same workload (the paper: 38-85%).
func BenchmarkFig8SyncVariant(b *testing.B) {
	d := bench.MustLoad("r2", benchScale)
	var util float64
	for i := 0; i < b.N; i++ {
		r := bench.Run(d, bench.Opts{System: "blaze-sync", Query: "spmv"})
		util = r.AvgBW() / ssd.OptaneSSD.RandBytesPerSec
	}
	report(b, "util", util)
}

// BenchmarkFig9ThreadScaling reports the 2->16 worker speedup on SpMV.
func BenchmarkFig9ThreadScaling(b *testing.B) {
	d := bench.MustLoad("r2", benchScale)
	var scaling float64
	for i := 0; i < b.N; i++ {
		t2 := bench.Run(d, bench.Opts{System: "blaze", Query: "spmv", Options: registry.Options{Workers: 2}})
		t16 := bench.Run(d, bench.Opts{System: "blaze", Query: "spmv", Options: registry.Options{Workers: 16}})
		scaling = float64(t2.ElapsedNs) / float64(t16.ElapsedNs)
	}
	report(b, "speedup-2to16", scaling)
}

// BenchmarkFig10BinSpace reports the bandwidth ratio between generous and
// starved bin space (Fig. 10's plateau vs cliff).
func BenchmarkFig10BinSpace(b *testing.B) {
	d := bench.MustLoad("r2", benchScale)
	var ratio float64
	for i := 0; i < b.N; i++ {
		big := bench.Run(d, bench.Opts{System: "blaze", Query: "spmv", Options: registry.Options{BinSpaceBytes: 16 << 20}})
		tiny := bench.Run(d, bench.Opts{System: "blaze", Query: "spmv", Options: registry.Options{BinSpaceBytes: 64 << 10}})
		ratio = big.AvgBW() / tiny.AvgBW()
	}
	report(b, "big/tiny-bw", ratio)
}

// BenchmarkFig11BinCount reports the runtime ratio between a mid-range and
// an extreme bin count.
func BenchmarkFig11BinCount(b *testing.B) {
	d := bench.MustLoad("r2", benchScale)
	var ratio float64
	for i := 0; i < b.N; i++ {
		mid := bench.Run(d, bench.Opts{System: "blaze", Query: "spmv", Options: registry.Options{BinCount: 1024, BinSpaceBytes: 8 << 20}})
		ext := bench.Run(d, bench.Opts{System: "blaze", Query: "spmv", Options: registry.Options{BinCount: 131072, BinSpaceBytes: 8 << 20}})
		ratio = float64(ext.ElapsedNs) / float64(mid.ElapsedNs)
	}
	report(b, "extreme/mid-time", ratio)
}

// BenchmarkFig11Ratio reports the runtime penalty of a maximally skewed
// scatter:gather split versus the balanced default.
func BenchmarkFig11Ratio(b *testing.B) {
	d := bench.MustLoad("r2", benchScale)
	var penalty float64
	for i := 0; i < b.N; i++ {
		bal := bench.Run(d, bench.Opts{System: "blaze", Query: "spmv", Options: registry.Options{Ratio: 0.5}})
		skw := bench.Run(d, bench.Opts{System: "blaze", Query: "spmv", Options: registry.Options{Ratio: 15.0 / 16}})
		penalty = float64(skw.ElapsedNs) / float64(bal.ElapsedNs)
	}
	report(b, "skewed/balanced-time", penalty)
}

// BenchmarkFig12MemoryFootprint reports BFS's memory footprint as a
// fraction of the graph size.
func BenchmarkFig12MemoryFootprint(b *testing.B) {
	d := bench.MustLoad("r2", benchScale)
	var frac float64
	for i := 0; i < b.N; i++ {
		r := bench.Run(d, bench.Opts{System: "blaze", Query: "bfs"})
		frac = float64(r.Mem.Total()) / float64(d.CSR.TotalBytes())
	}
	report(b, "mem/graph", frac)
}
