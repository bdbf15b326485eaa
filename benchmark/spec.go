package main

import (
	"encoding/json"

	"blaze/internal/ssd"
)

// Every constant below is fixed by hand, never derived from a measurement
// taken during the run: a rate defined as "0.8 x measured capacity" would
// rise with every speedup and hide it. README.md records how each value
// was chosen.
const (
	defaultSeed    = 1
	defaultSeconds = 8 // BENCHMARK.json run_seconds
	setupRepeats   = 3 // set-ups per end-to-end run; setup_s is their median

	realWorkers = 4  // compute procs of the real-backend workloads
	simWorkers  = 16 // the paper's configuration, as bench.Run uses

	prIters = 5
	prEps   = 1e-9

	prDenseScale = 256 // r2: 523k vertices, 8.4M edges, 33.5 MB adjacency per direction

	bfsSparseScale   = 256 // sk: 199k vertices, 7.6M edges, ~60 rounds per BFS
	bfsSparseSources = 12
	// A drawn source is kept only when the reference BFS reaches at least
	// this share of the vertices, so no sample is a two-round no-op.
	bfsMinReachShare = 0.5

	simPRScale = 1024 // r2: 2.1M edges under virtual time

	serveScale      = 4096
	serveSlots      = 4
	serveQueueDepth = 16
	serveRequests   = 128 // per offered rate
	serveSources    = 8
	serveDeadlineNs = 8e6 // interactive deadline, model ns: ~4 uncontended BFS service times
	serveWarmupReqs = 16

	ingestScale      = 2048    // r2: 1.05M edges
	ingestMaxMem     = 2 << 20 // 4 sorted runs per direction at this scale
	ingestSteps      = 32
	ingestBatchShare = 0.001 // of |E| per insertion batch
)

// serveRates are the offered rates R1 < R2 < R3 in requests per
// model-second: about 0.4, 0.8 and 1.2 times the capacity of ~1550
// requests per model-second measured once at the commit that added the
// benchmark (see README.md), rounded to two digits.
var serveRates = [3]float64{620, 1200, 1900}

// unpaced is the device profile of the real-backend workloads. Pacing a
// modeled SSD with wall-clock sleeps would measure the sleep, not the
// program; reads come from the OS cache at whatever speed the host gives.
var unpaced = ssd.Profile{Name: "unpaced", SeqBytesPerSec: 1e15, RandBytesPerSec: 1e15}

// metricSpec names one metric. Bound is what -compare applies between two
// result sets of the same seed: the share of the base value by which the
// metric may worsen (Exact metrics are deterministic and must be equal;
// Bound 0 without Exact means the metric explains and is never gated).
// Driver is the bound written to BENCHMARK.json for end-to-end metrics:
// the driver's runs differ in seed, so even deterministic metrics spread,
// and the sandbox's speed drifts by up to a fifth between sets of runs
// (README.md, Baseline). An end-to-end metric with Driver 0 is not in
// BENCHMARK.json.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Exact  bool
	Driver float64
}

var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.10, Driver: 0.25},
	{Name: "query_ms", Unit: "ms", Better: "lower", Bound: 0.10, Driver: 0.25},
	// The tail exists only where a run has twenty samples (bfs_sparse,
	// ingest_update), and the contract wants every end-to-end metric on
	// every workload: it is printed, kept in -out and gated by -compare,
	// but BENCHMARK.json does not carry it (Driver 0).
	{Name: "query_ms_tail", Unit: "ms", Better: "lower", Bound: 0.10},
	{Name: "edges_per_s", Unit: "1/s", Better: "higher", Bound: 0.10, Driver: 0.25},
	{Name: "read_mb", Unit: "MB", Better: "lower", Exact: true, Driver: 0.20},
	// The issue asked for 2 %; one PageRank's malloc count on the real
	// backend moves +-4 % from run to run, so five of them cannot resolve 2 %.
	{Name: "allocs_per_query", Unit: "count", Better: "lower", Bound: 0.05, Driver: 0.25},
	{Name: "alloc_mb_per_query", Unit: "MB", Better: "lower", Bound: 0.02, Driver: 0.20},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05, Driver: 0.25},
}

// perLayer lists the single-layer metrics plus the end-to-end metrics that
// exist on one workload only (the builder's contract wants every
// end-to-end metric non-zero on every workload, so these are reported
// beside the layers; -compare still gates them). A value of 0 on a
// workload means the layer is not exercised or not probed there.
var perLayer = []metricSpec{
	// End-to-end on one workload; gated by -compare.
	{Name: "model_makespan_ms", Unit: "model_ms", Better: "lower", Exact: true},
	{Name: "lat_p50_model_ms", Unit: "model_ms", Better: "lower", Exact: true},
	{Name: "lat_p90_model_ms", Unit: "model_ms", Better: "lower", Exact: true},
	{Name: "goodput_per_model_s", Unit: "1/model_s", Better: "higher", Exact: true},
	{Name: "slo_rate_per_model_s", Unit: "1/model_s", Better: "higher", Exact: true},
	{Name: "ingest_edges_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "failed_share", Unit: "share", Better: "lower", Exact: true},

	// Set-up spans.
	{Name: "gen.generate_ns_per_edge", Unit: "ns/edge", Better: "lower"},
	{Name: "graph.build_ns_per_edge", Unit: "ns/edge", Better: "lower"},
	{Name: "graph.transpose_ns_per_edge", Unit: "ns/edge", Better: "lower"},
	{Name: "graph.write_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "graph.load_index_ms", Unit: "ms", Better: "lower"},

	// Ingest and update spans.
	{Name: "ingest.runform_ns_per_edge", Unit: "ns/edge", Better: "lower"},
	{Name: "ingest.merge_ns_per_edge", Unit: "ns/edge", Better: "lower"},
	{Name: "ingest.runs", Unit: "count", Better: "lower"},
	{Name: "engine.seal_ms", Unit: "ms", Better: "lower"},
	{Name: "algo.repair_ms", Unit: "ms", Better: "lower"},
	{Name: "algo.repair_rounds", Unit: "count", Better: "lower"},
	{Name: "engine.multisource_bfs_ms", Unit: "ms", Better: "lower"},

	// Probes: one exported function in isolation on the workload's inputs.
	{Name: "frontier.pagesof_dense_ns_per_page", Unit: "ns/page", Better: "lower"},
	{Name: "frontier.pagesof_sparse_ns_per_vertex", Unit: "ns/vertex", Better: "lower"},
	{Name: "pipeline.mergefrontiers_ns_per_vertex", Unit: "ns/vertex", Better: "lower"},
	{Name: "ssd.read_ns_per_page", Unit: "ns/page", Better: "lower"},
	{Name: "engine.scan_ns_per_edge", Unit: "ns/edge", Better: "lower"},
	{Name: "engine.scan_sparse_ns_per_edge", Unit: "ns/edge", Better: "lower"},
	{Name: "bin.emit_ns_per_record", Unit: "ns/record", Better: "lower"},
	{Name: "bin.gather_ns_per_record", Unit: "ns/record", Better: "lower"},
	{Name: "engine.edgemap_fixed_us", Unit: "us", Better: "lower"},
	{Name: "engine.edgemap_scanonly_ns_per_edge", Unit: "ns/edge", Better: "lower"},
	{Name: "engine.edgemap_full_ns_per_edge", Unit: "ns/edge", Better: "lower"},
	{Name: "queue.ring_ns_per_item", Unit: "ns/item", Better: "lower"},
	{Name: "exec.sim_sync_ns", Unit: "ns", Better: "lower"},
	{Name: "exec.sim_queue_ns_per_item", Unit: "ns/item", Better: "lower"},
	{Name: "exec.sim_spawn_us", Unit: "us", Better: "lower"},
	{Name: "pagecache.proberun_ns_per_page", Unit: "ns/page", Better: "lower"},
	{Name: "pagecache.put_evict_ns_per_page", Unit: "ns/page", Better: "lower"},

	// Traced pass: trace.Summary of the engine's own rings.
	{Name: "engine.phase_source_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.phase_pipeline_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.phase_merge_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.scatter_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.scatter_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.gather_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.requests", Unit: "count", Better: "lower"},
	{Name: "pipeline.pages_per_request", Unit: "pages/req", Better: "higher"},
	{Name: "pipeline.io_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.filled_queue_mean", Unit: "count", Better: "higher"},
	{Name: "bin.records_per_flush", Unit: "rec/flush", Better: "higher"},
	{Name: "bin.full_queue_mean", Unit: "count", Better: "lower"},

	// Traced pass: the benchmark's spans around System calls.
	{Name: "engine.edgemap_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.vertexmap_ms", Unit: "ms", Better: "lower"},
	{Name: "algo.self_ms", Unit: "ms", Better: "lower"},
	{Name: "algo.rounds", Unit: "count", Better: "lower"},
	{Name: "query_ms_traced", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},

	// Serving counters, at R2 unless a rate is named.
	{Name: "pagecache.hit_rate", Unit: "share", Better: "higher"},
	{Name: "pagecache.evictions", Unit: "count", Better: "lower"},
	{Name: "iosched.coalesced_page_share", Unit: "share", Better: "higher"},
	{Name: "server.queue_wait_model_ms_p50", Unit: "model_ms", Better: "lower"},
	{Name: "server.queue_wait_model_ms_p90", Unit: "model_ms", Better: "lower"},
	{Name: "session.service_model_ms_p50", Unit: "model_ms", Better: "lower"},
	{Name: "server.reject_share.r1", Unit: "share", Better: "lower"},
	{Name: "server.reject_share.r2", Unit: "share", Better: "lower"},
	{Name: "server.reject_share.r3", Unit: "share", Better: "lower"},
	{Name: "server.expired_share.r1", Unit: "share", Better: "lower"},
	{Name: "server.expired_share.r2", Unit: "share", Better: "lower"},
	{Name: "server.expired_share.r3", Unit: "share", Better: "lower"},
	{Name: "server.late_share.r1", Unit: "share", Better: "lower"},
	{Name: "server.late_share.r2", Unit: "share", Better: "lower"},
	{Name: "server.late_share.r3", Unit: "share", Better: "lower"},
	{Name: "loadgen.lateness_model_ms_max", Unit: "model_ms", Better: "lower"},
}

// workloadSpec names one workload; new performs its set-up.
type workloadSpec struct {
	Name string
	Why  string
	new  func(env *env) (instance, error)
}

var workloads = []workloadSpec{
	{"pr_dense", "every vertex stays active: page scan, Stager.Emit, bin flush and gather drain do nearly all the work", newPRDense},
	{"bfs_sparse", "about sixty short rounds per query: per-round fixed cost, sparse PagesOf and frontier merging dominate", newBFSSparse},
	{"sim_pr", "the virtual-time instrument itself: host time per simulated edge, and the modeled makespan pinned exactly", newSimPR},
	{"serve_mix", "open-loop serving at three fixed rates: page cache, IO coalescing, session quotas and admission do the work", newServeMix},
	{"ingest_update", "the storage and engine layers the other way round: external-sort ingest, seal and incremental repair", newIngestUpdate},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// manifest renders BENCHMARK.json from the tables above, so the committed
// file cannot drift from what the program prints (a unit test compares).
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.Name, w.Why})
	}
	for _, s := range endToEnd {
		if s.Driver > 0 {
			m.EndToEnd = append(m.EndToEnd, e2e{s.Name, s.Unit, s.Better, s.Driver})
		}
	}
	for _, s := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{s.Name, s.Unit, s.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
