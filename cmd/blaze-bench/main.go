// Command blaze-bench regenerates the paper's tables and figures, and the
// extension suites (ext_*), under the deterministic virtual-time backend
// and writes one CSV per artifact. An experiment is the only unit it runs.
//
// Usage:
//
//	blaze-bench -exp fig7              # one experiment
//	blaze-bench -exp all               # everything (minutes)
//	blaze-bench -exp fig9 -scale 512   # larger datasets (slower)
//	blaze-bench -exp fig10 -cpuprofile cpu.out -memprofile mem.out
//	blaze-bench -exp fig8 -faultTransientRate 0.001  # failure drill
//	blaze-bench -exp ext_serving       # an extension suite, same path
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
// ./results). The committed results/*.csv are the repo's trajectory: CI
// regenerates them and fails on any byte of difference. The
// -cpuprofile/-memprofile flags write pprof profiles of the run for
// `go tool pprof`.
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
	exp := flag.String("exp", "", "experiment id (see -list) or 'all'")
	scale := flag.Float64("scale", bench.DefaultScale, "divide the paper's dataset sizes by this factor")
	out := flag.String("out", "results", "output directory for CSV files")
	list := flag.Bool("list", false, "list experiments and exit")
	traceOut := flag.String("trace", "", "run one traced measurement and write a Chrome trace_event JSON timeline (Perfetto-loadable) to this file")
	stageStats := flag.Bool("stage-stats", false, "run one traced measurement and print the per-stage summary")
	traceEngine := flag.String("trace-engine", "blaze", "engine for the traced run")
	traceQuery := flag.String("trace-query", "bfs", "query for the traced run")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	fo := &cli.Options{}
	fo.FaultFlags(flag.CommandLine)
	flag.Parse()

	if fo.FaultPolicy().Enabled() || fo.RetryMax >= 0 || fo.RetryBackoffNs > 0 {
		bench.DeviceOpts = fo.DeviceOptions()
		fmt.Fprintln(os.Stderr, "note: fault injection / retry overrides active; outputs will diverge from the paper figures")
	}

	// Profiles cover whichever mode runs below: the traced run returns
	// early, so the set-up has to precede it.
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

	if *list || *exp == "" {
		fmt.Println("experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-14s %s\n", e.ID, e.Desc)
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
