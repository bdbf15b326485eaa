// Command benchmark is the repository's measurement spine: five named
// workloads, end-to-end metrics taken with tracing off, one traced pass for
// the per-layer numbers, every result checked against the serial
// references. It measures every layer from outside, through exported
// functions only, and claims no gain; README.md in this directory explains
// the workloads, the metrics and how they interact.
//
//	go run ./benchmark                                   # all workloads, both passes
//	go run ./benchmark -workload bfs_sparse -seed 2 -seconds 8 -trace 0
//	go run ./benchmark -out a.json -spans spans.json
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

func main() { os.Exit(run()) }

// run returns the exit status: 0 when every result matched its reference,
// 1 when one did not (or -compare found a metric worse or unresolved), 2
// when the benchmark could not run.
func run() int {
	var (
		workload   = flag.String("workload", "all", "workload to run, or all")
		seed       = flag.Uint64("seed", defaultSeed, "seed of every generated input (README.md names the held-out seed)")
		seconds    = flag.Float64("seconds", defaultSeconds, "how long each workload's measured phase runs")
		traceMode  = flag.String("trace", "both", "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass and the probes; both")
		out        = flag.String("out", "", "write the result set as JSON to this file")
		spansPath  = flag.String("spans", "", "write the traced pass's spans as JSON to this file")
		doCompare  = flag.Bool("compare", false, "compare two result sets: -compare base.json new.json")
		doManifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	switch {
	case *doManifest:
		data, err := manifest()
		if err != nil {
			return fail(err)
		}
		os.Stdout.Write(data)
		return 0
	case *doCompare:
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare wants two result sets: base.json new.json"))
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	host := hostFacts{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: *seed, Seconds: *seconds,
	}
	if host.GOMAXPROCS > host.NumCPU {
		return fail(fmt.Errorf("GOMAXPROCS %d exceeds the %d CPUs available: timings would measure oversubscription", host.GOMAXPROCS, host.NumCPU))
	}
	if *traceMode != "0" && *traceMode != "1" && *traceMode != "both" {
		return fail(fmt.Errorf("-trace wants 0, 1 or both, not %q", *traceMode))
	}
	selected := workloads
	if *workload != "all" {
		w := findWorkload(*workload)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
		selected = []workloadSpec{*w}
	}

	fmt.Printf("# blaze benchmark: seed %d, %.0f s per workload, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		host.Seed, host.Seconds, host.NumCPU, host.GOMAXPROCS, host.GoVersion, host.Commit)
	fmt.Println("# real-backend devices are unpaced and reads come from the OS cache: every wall-clock figure is this sandbox's, not a device's")

	// Each set-up removes its own directory; the shared root goes here, on
	// every path out of run, and on a signal.
	cleanOnSignal()
	defer os.Remove(tmpRoot)
	rs := &resultSet{Host: host}
	var spans []span
	failed := 0
	for i := range selected {
		w := &selected[i]
		res := workloadResult{Name: w.Name}
		if *traceMode != "1" {
			r, err := runEndToEnd(w, *seed, *seconds)
			if err != nil {
				return fail(err)
			}
			res = *r
		}
		if *traceMode != "0" {
			r, s, err := runLayers(w, *seed)
			if err != nil {
				return fail(err)
			}
			res.PerLayer = r.PerLayer
			res.Attempted += r.Attempted
			res.Failed += r.Failed
			res.Shed += r.Shed
			spans = append(spans, s...)
		}
		printWorkload(&res)
		rs.Workloads = append(rs.Workloads, res)
		failed += res.Failed
	}
	if *out != "" {
		if err := writeResultSet(*out, rs); err != nil {
			return fail(err)
		}
	}
	if *spansPath != "" {
		if err := writeSpans(*spansPath, spans); err != nil {
			return fail(err)
		}
	}
	if len(rs.Workloads) == 1 {
		line, err := contractLine(&rs.Workloads[0])
		if err != nil {
			return fail(err)
		}
		fmt.Printf("%s\n", line)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %d results did not match their reference\n", failed)
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func compareFiles(basePath, newPath string) int {
	base, err := readResultSet(basePath)
	if err != nil {
		return fail(err)
	}
	cur, err := readResultSet(newPath)
	if err != nil {
		return fail(err)
	}
	if base.Host.Seed != cur.Host.Seed {
		fmt.Printf("# seeds differ (%d, %d): exact metrics will not match\n", base.Host.Seed, cur.Host.Seed)
	}
	if bad := printComparison(os.Stdout, compareSets(base, cur)); bad > 0 {
		fmt.Printf("%d metrics worse or unresolved\n", bad)
		return 1
	}
	fmt.Println("no metric worse or unresolved")
	return 0
}

// printWorkload prints every metric by name with its unit and, where it
// has one, its sample count.
func printWorkload(r *workloadResult) {
	fmt.Printf("\n%s: %d operations checked, %d wrong, %d shed, failed_share %.6g\n",
		r.Name, r.Attempted, r.Failed, r.Shed, r.failedShare())
	for _, group := range []struct {
		specs []metricSpec
		vals  map[string]metricValue
	}{{endToEnd, r.EndToEnd}, {perLayer, r.PerLayer}} {
		for _, s := range group.specs {
			v, ok := group.vals[s.Name]
			if !ok {
				continue
			}
			extra := ""
			if v.Samples > 0 {
				extra = fmt.Sprintf("  n=%d", v.Samples)
			}
			if v.Note != "" {
				extra += "  " + v.Note
			}
			fmt.Printf("  %-14s %-40s %16.6f %-10s%s\n", r.Name, s.Name, v.Value, v.Unit, extra)
		}
	}
}

// contractLine is the single JSON object the builder's driver reads from
// the last line of standard output: exactly the metrics BENCHMARK.json
// lists for the pass that ran.
func contractLine(r *workloadResult) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, s := range endToEnd {
		if v, ok := r.EndToEnd[s.Name]; ok && s.Driver > 0 {
			metrics[s.Name] = mv{v.Value, v.Unit}
		}
	}
	for n, v := range r.PerLayer {
		metrics[n] = mv{v.Value, v.Unit}
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, attempted, r.Failed, metrics})
}
