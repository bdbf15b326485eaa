// Command blaze-bench regenerates the paper's tables and figures under the
// deterministic virtual-time backend and writes one CSV per artifact.
//
// Usage:
//
//	blaze-bench -exp fig7              # one experiment
//	blaze-bench -exp all               # everything (minutes)
//	blaze-bench -exp fig9 -scale 512   # larger datasets (slower)
//	blaze-bench -exp fig10 -cpuprofile cpu.out -memprofile mem.out
//	blaze-bench -exp fig8 -faultTransientRate 0.001  # failure drill
//	blaze-bench -snapshot BENCH_pipeline.json        # CI perf snapshot
//	blaze-bench -snapshot-pagecache BENCH_pagecache.json  # cache ablation snapshot
//	blaze-bench -snapshot-serving BENCH_serving.json      # serving latency-vs-load snapshot
//	blaze-bench -snapshot-async BENCH_async.json          # barrier-free driver snapshot
//	blaze-bench -snapshot-scaleout BENCH_scaleout.json    # machine-count sweep snapshot
//	blaze-bench -snapshot-ingest BENCH_ingest.json        # incremental repair vs recompute snapshot
//	blaze-bench -trace trace.json -stage-stats       # traced single run
//	blaze-bench -list
//
// The -trace flag runs one traced measurement (engine and query selected
// with -trace-engine/-trace-query) and writes a Chrome trace_event JSON
// timeline loadable in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing; -stage-stats prints the per-stage summary, whose phase
// totals reconstruct the makespan.
//
// The -fault* flags inject deterministic device faults (see internal/fault)
// and -retryMax/-retryBackoffNs override the device retry policy; both
// change the modeled timings, so drill outputs are not comparable to the
// paper figures. An unrecoverable fault aborts the run with the device
// error (the harness treats query failure as fatal).
//
// Results print as aligned tables and are saved under -out (default
// ./results). The -cpuprofile/-memprofile flags write pprof profiles of the
// run for `go tool pprof`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"blaze/bench"
	"blaze/internal/cli"
	"blaze/internal/trace"
)

func main() {
	os.Exit(run())
}

// run carries the exit code back to main so profile-writing defers execute;
// os.Exit inside main would skip them. The named return lets a failed heap
// profile write flip an otherwise-successful exit to 1.
func run() (code int) {
	exp := flag.String("exp", "", "experiment id (table1, table2, fig1..fig12) or 'all'")
	scale := flag.Float64("scale", bench.DefaultScale, "divide the paper's dataset sizes by this factor")
	out := flag.String("out", "results", "output directory for CSV files")
	list := flag.Bool("list", false, "list experiments and exit")
	snapshot := flag.String("snapshot", "", "write a short-sim pipeline perf snapshot (makespan + allocs per engine) to this JSON file and exit")
	snapshotPC := flag.String("snapshot-pagecache", "", "write a short-sim page-cache ablation snapshot (LRU vs CLOCK by cache size, with hit rates) to this JSON file and exit")
	snapshotMQ := flag.String("snapshot-multiquery", "", "write a short-sim concurrent-session snapshot (aggregate throughput and coalesced reads at Q=1/2/4/8) to this JSON file and exit")
	snapshotServe := flag.String("snapshot-serving", "", "write a short-sim serving snapshot (per-class p50/p99, goodput, reject rate across an arrival-rate sweep) to this JSON file and exit")
	snapshotAsync := flag.String("snapshot-async", "", "write a short-sim async-driver snapshot (blaze vs blaze-async makespans on the high-diameter crawl) to this JSON file and exit")
	snapshotScaleout := flag.String("snapshot-scaleout", "", "write a short-sim scale-out snapshot (blaze-scaleout makespan, network bytes, and per-machine IO at M=1/2/4) to this JSON file and exit")
	snapshotIngest := flag.String("snapshot-ingest", "", "write a short-sim dynamic-ingest snapshot (incremental BFS/WCC repair vs full recompute after a 1% insertion batch) to this JSON file and exit")
	traceOut := flag.String("trace", "", "run one traced measurement and write a Chrome trace_event JSON timeline (Perfetto-loadable) to this file")
	stageStats := flag.Bool("stage-stats", false, "run one traced measurement and print the per-stage summary")
	traceEngine := flag.String("trace-engine", "blaze", "engine for the traced run")
	traceQuery := flag.String("trace-query", "bfs", "query for the traced run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	fo := &cli.Options{}
	flag.Uint64Var(&fo.FaultSeed, "faultSeed", 1, "fault-injection seed (deterministic per page)")
	flag.Float64Var(&fo.FaultTransientRate, "faultTransientRate", 0, "fraction of pages whose reads fail transiently (0 = off)")
	flag.IntVar(&fo.FaultTransientFails, "faultTransientFails", 1, "failed attempts before a transient-faulty page heals")
	flag.Float64Var(&fo.FaultPermanentRate, "faultPermanentRate", 0, "fraction of pages that are permanently unreadable (0 = off)")
	flag.Float64Var(&fo.FaultSpikeRate, "faultSpikeRate", 0, "fraction of requests with extra modeled latency (0 = off)")
	flag.Int64Var(&fo.FaultSpikeNs, "faultSpikeNs", 0, "extra latency per spiked request in ns")
	flag.IntVar(&fo.RetryMax, "retryMax", -1, "max transient-error retries per read (-1 = device default)")
	flag.Int64Var(&fo.RetryBackoffNs, "retryBackoffNs", 0, "initial retry backoff in ns, doubling per attempt (0 = device default)")
	flag.Parse()

	if fo.FaultPolicy().Enabled() || fo.RetryMax >= 0 || fo.RetryBackoffNs > 0 {
		bench.DeviceOpts = fo.DeviceOptions()
		fmt.Fprintln(os.Stderr, "note: fault injection / retry overrides active; outputs will diverge from the paper figures")
	}

	// Profiles cover whichever mode runs below: the traced run and the
	// snapshot modes return early, so the set-up has to precede them.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating CPU profile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "starting CPU profile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "creating heap profile: %v\n", err)
				if code == 0 {
					code = 1
				}
				return
			}
			defer f.Close()
			runtime.GC() // up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "writing heap profile: %v\n", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}

	if *traceOut != "" || *stageStats {
		d, err := bench.Load("r2", *scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			return 1
		}
		res, tr := bench.TraceRun(d, bench.Opts{System: *traceEngine, Query: *traceQuery, PRIters: 5})
		fmt.Printf("%s %s on %s: makespan=%.3fms read=%.1fMB events=%d\n",
			*traceEngine, *traceQuery, d.Preset.Short,
			float64(res.ElapsedNs)/1e6, float64(res.ReadBytes)/1e6, tr.Events())
		if *traceOut != "" {
			if err := cli.WriteTrace(*traceOut, tr); err != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
				return 1
			}
			fmt.Printf("trace written to %s (open in Perfetto: https://ui.perfetto.dev)\n", *traceOut)
		}
		if *stageStats {
			trace.Summarize(tr).Fprint(os.Stdout)
		}
		return 0
	}

	if *snapshot != "" {
		entries, err := bench.Snapshot(*scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snapshot: %v\n", err)
			return 1
		}
		if err := bench.WriteSnapshot(*snapshot, entries); err != nil {
			fmt.Fprintf(os.Stderr, "snapshot: %v\n", err)
			return 1
		}
		for _, e := range entries {
			fmt.Printf("%-12s %-4s makespan=%8.3fms read=%6.1fMB allocs=%d\n",
				e.Engine, e.Query, float64(e.MakespanNs)/1e6, float64(e.ReadBytes)/1e6, e.Allocs)
		}
		fmt.Printf("snapshot written to %s\n", *snapshot)
		return 0
	}

	if *snapshotPC != "" {
		entries, err := bench.PagecacheSnapshot(*scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snapshot-pagecache: %v\n", err)
			return 1
		}
		if err := bench.WriteCacheSnapshot(*snapshotPC, entries); err != nil {
			fmt.Fprintf(os.Stderr, "snapshot-pagecache: %v\n", err)
			return 1
		}
		for _, e := range entries {
			fmt.Printf("%-6s cache=%4dMB %-4s makespan=%8.3fms read=%6.1fMB hitRate=%.3f evict=%d ghost=%d\n",
				e.Policy, e.CacheMB, e.Query, float64(e.MakespanNs)/1e6,
				float64(e.ReadBytes)/1e6, e.HitRate, e.Evictions, e.GhostHits)
		}
		fmt.Printf("snapshot written to %s\n", *snapshotPC)
		return 0
	}

	if *snapshotMQ != "" {
		entries, err := bench.MultiQuerySnapshot(*scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snapshot-multiquery: %v\n", err)
			return 1
		}
		if err := bench.WriteMultiQuerySnapshot(*snapshotMQ, entries); err != nil {
			fmt.Fprintf(os.Stderr, "snapshot-multiquery: %v\n", err)
			return 1
		}
		for _, e := range entries {
			fmt.Printf("%-8s %-5s Q=%d makespan=%8.3fms read=%6.1fMB coalesced=%6d pages aggScale=%.2fx\n",
				e.Engine, e.Query, e.Q, float64(e.MakespanNs)/1e6,
				float64(e.ReadBytes)/1e6, e.CoalescedPages, e.AggThroughputScale)
		}
		fmt.Printf("snapshot written to %s\n", *snapshotMQ)
		return 0
	}

	if *snapshotServe != "" {
		entries, err := bench.ServingSnapshot(*scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snapshot-serving: %v\n", err)
			return 1
		}
		if err := bench.WriteServingSnapshot(*snapshotServe, entries); err != nil {
			fmt.Fprintf(os.Stderr, "snapshot-serving: %v\n", err)
			return 1
		}
		for _, e := range entries {
			fmt.Printf("load=%.1fx rate=%6.0f/s %-11s p50=%8.3fms p99=%8.3fms goodput=%7.1f/s reject=%5.1f%% expired=%d\n",
				e.LoadFactor, e.RatePerSec, e.Class, float64(e.P50Ns)/1e6,
				float64(e.P99Ns)/1e6, e.GoodputPerSec, 100*e.RejectRate, e.Expired)
		}
		fmt.Printf("snapshot written to %s\n", *snapshotServe)
		return 0
	}

	if *snapshotAsync != "" {
		entries, err := bench.AsyncSnapshot(*scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snapshot-async: %v\n", err)
			return 1
		}
		if err := bench.WriteSnapshot(*snapshotAsync, entries); err != nil {
			fmt.Fprintf(os.Stderr, "snapshot-async: %v\n", err)
			return 1
		}
		for _, e := range entries {
			fmt.Printf("%-12s %-4s makespan=%8.3fms read=%6.1fMB\n",
				e.Engine, e.Query, float64(e.MakespanNs)/1e6, float64(e.ReadBytes)/1e6)
		}
		fmt.Printf("snapshot written to %s\n", *snapshotAsync)
		return 0
	}

	if *snapshotScaleout != "" {
		entries, err := bench.ScaleoutSnapshot(*scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snapshot-scaleout: %v\n", err)
			return 1
		}
		if err := bench.WriteScaleoutSnapshot(*snapshotScaleout, entries); err != nil {
			fmt.Fprintf(os.Stderr, "snapshot-scaleout: %v\n", err)
			return 1
		}
		for _, e := range entries {
			fmt.Printf("%-5s M=%d makespan=%8.3fms read=%6.1fMB net=%6.2fMB msgs=%5d speedup=%.2fx\n",
				e.Query, e.Machines, float64(e.MakespanNs)/1e6, float64(e.ReadBytes)/1e6,
				float64(e.NetBytes)/1e6, e.NetMsgs, e.SpeedupVsM1)
		}
		fmt.Printf("snapshot written to %s\n", *snapshotScaleout)
		return 0
	}

	if *snapshotIngest != "" {
		entries, err := bench.IngestSnapshot(*scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snapshot-ingest: %v\n", err)
			return 1
		}
		if err := bench.WriteSnapshot(*snapshotIngest, entries); err != nil {
			fmt.Fprintf(os.Stderr, "snapshot-ingest: %v\n", err)
			return 1
		}
		for _, e := range entries {
			fmt.Printf("%-8s %-10s makespan=%8.3fms\n",
				e.Engine, e.Query, float64(e.MakespanNs)/1e6)
		}
		fmt.Printf("snapshot written to %s\n", *snapshotIngest)
		return 0
	}

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Desc)
		}
		if *exp == "" && !*list {
			return 2
		}
		return 0
	}

	var runs []bench.Experiment
	if *exp == "all" {
		runs = bench.Experiments()
	} else {
		e, err := bench.ExperimentByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		runs = []bench.Experiment{e}
	}

	for _, e := range runs {
		start := time.Now()
		fmt.Printf("# %s — %s (scale 1/%g)\n\n", e.ID, e.Desc, *scale)
		tables := e.Run(*scale)
		for _, t := range tables {
			t.Fprint(os.Stdout)
			if err := t.SaveCSV(*out); err != nil {
				fmt.Fprintf(os.Stderr, "saving %s: %v\n", t.ID, err)
				return 1
			}
		}
		fmt.Printf("# %s done in %s; CSVs in %s/\n\n", e.ID, time.Since(start).Round(time.Millisecond), *out)
	}
	return 0
}
