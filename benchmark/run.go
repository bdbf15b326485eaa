package main

import (
	"fmt"
	"math"
	"time"

	"blaze/internal/trace"
)

// metricValue is one reported number. Q1 and Q3 are the quartiles of the
// Passes per-pass values when the run made at least two passes; -compare
// estimates the run-to-run spread of Value from them.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Passes  int     `json:"passes,omitempty"`
	Q1      float64 `json:"q1,omitempty"`
	Q3      float64 `json:"q3,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// spread estimates how much Value would move from run to run, as a share
// of it: Value pools Passes passes, so it moves about 1/sqrt(Passes) as
// much as a single pass does.
func (v metricValue) spread() float64 {
	if v.Value == 0 || v.Passes < 2 {
		return 0
	}
	return (v.Q3 - v.Q1) / math.Abs(v.Value) / math.Sqrt(float64(v.Passes))
}

// workloadResult is everything one workload reported.
type workloadResult struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	// Failed counts wrong results; Shed counts requests serve_mix's server
	// refused, expired or finished late. failed_share is their sum over
	// Attempted.
	Failed   int                    `json:"failed"`
	Shed     int                    `json:"shed"`
	EndToEnd map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
}

func (r *workloadResult) failedShare() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed+r.Shed) / float64(r.Attempted)
}

// tally adds one pass to the attempted/failed/shed counts.
func (r *workloadResult) tally(p passResult) {
	r.Attempted += p.attempted()
	r.Failed += p.failed
	r.Shed += p.shed
}

func (p passResult) attempted() int {
	if p.offered > 0 {
		return p.offered
	}
	return len(p.ops)
}

// runEndToEnd measures one workload with tracing off: set up setupRepeats
// times (setup_s is the median), one untimed warm-up, passes for seconds,
// the live heap, then the reference checks.
func runEndToEnd(w *workloadSpec, seed uint64, seconds float64) (res *workloadResult, err error) {
	var (
		inst    instance
		cleanup func() error
		setups  []float64
	)
	for i := 0; i < setupRepeats; i++ {
		var took time.Duration
		if inst, cleanup, took, _, err = setUp(w, seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < setupRepeats-1 { // the last set-up is the one measured on
			if err := cleanup(); err != nil {
				return nil, err
			}
		}
	}
	defer func() {
		if cerr := cleanup(); err == nil {
			err = cerr
		}
	}()
	if err := inst.warm(); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.Name, err)
	}
	res = &workloadResult{Name: w.Name}
	var passes []passResult
	for start := time.Now(); len(passes) == 0 || time.Since(start).Seconds() < seconds; {
		p, err := inst.pass(nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		passes = append(passes, p)
		res.tally(p)
	}
	heap := liveHeapMB(inst)
	checks, failed, err := inst.verify()
	if err != nil {
		return nil, fmt.Errorf("%s: verify: %w", w.Name, err)
	}
	res.Attempted += checks
	res.Failed += failed
	res.EndToEnd = endToEndMetrics(setups, passes, heap)
	return res, nil
}

// perPass evaluates f on each pass alone and on all passes pooled: the
// pooled value is what is reported, the per-pass values give the spread.
func perPass(passes []passResult, unit string, f func(ps []passResult) float64) metricValue {
	v := metricValue{Value: f(passes), Unit: unit, Passes: len(passes)}
	if len(passes) >= 2 {
		each := make([]float64, len(passes))
		for i := range passes {
			each[i] = f(passes[i : i+1])
		}
		v.Q1, v.Q3 = quartiles(each)
	}
	return v
}

func opTimesMs(ps []passResult) []float64 {
	var ms []float64
	for _, p := range ps {
		for _, o := range p.ops {
			ms = append(ms, float64(o.Ns)/1e6)
		}
	}
	return ms
}

// perOp returns the mean of field over every operation of ps.
func perOp(ps []passResult, field func(opSample) int64) float64 {
	var total, n float64
	for _, p := range ps {
		for _, o := range p.ops {
			total += float64(field(o))
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / n
}

// extraMedian is the median over passes of a workload-specific value.
func extraMedian(ps []passResult, name string) (float64, bool) {
	var vs []float64
	for _, p := range ps {
		if v, ok := p.extra[name]; ok {
			vs = append(vs, v)
		}
	}
	return median(vs), len(vs) > 0
}

func endToEndMetrics(setups []float64, passes []passResult, heapMB float64) map[string]metricValue {
	m := map[string]metricValue{}
	q1, q3 := quartiles(setups)
	m["setup_s"] = metricValue{Value: median(setups), Unit: "s", Samples: len(setups), Passes: len(setups), Q1: q1, Q3: q3}

	q := perPass(passes, "ms", func(ps []passResult) float64 { return median(opTimesMs(ps)) })
	q.Samples = len(opTimesMs(passes))
	m["query_ms"] = q

	if pct, _, ok := tailPercentile(opTimesMs(passes)); ok {
		tail := perPass(passes, "ms", func(ps []passResult) float64 {
			if _, v, ok := tailPercentile(opTimesMs(ps)); ok {
				return v
			}
			return median(opTimesMs(ps)) // a pass too short for a tail of its own
		})
		tail.Samples, tail.Note = q.Samples, fmt.Sprintf("p%.0f", pct)
		m["query_ms_tail"] = tail
	}

	m["edges_per_s"] = perPass(passes, "1/s", func(ps []passResult) float64 {
		if v, ok := extraMedian(ps, "edges_per_s"); ok {
			return v
		}
		edges := perOp(ps, func(o opSample) int64 { return o.Edges })
		ns := perOp(ps, func(o opSample) int64 { return o.Ns })
		return edges / ns * 1e9
	})
	m["read_mb"] = perPass(passes, "MB", func(ps []passResult) float64 {
		return perOp(ps, func(o opSample) int64 { return o.ReadBytes }) / 1e6
	})
	m["allocs_per_query"] = perPass(passes, "count", func(ps []passResult) float64 {
		return perOp(ps, func(o opSample) int64 { return o.Allocs })
	})
	m["alloc_mb_per_query"] = perPass(passes, "MB", func(ps []passResult) float64 {
		return perOp(ps, func(o opSample) int64 { return o.AllocBytes }) / 1e6
	})
	m["live_heap_mb"] = metricValue{Value: heapMB, Unit: "MB", Samples: 1}
	return m
}

// querySpans are the spans that stand for one operation of a workload;
// their children are the System calls the operation made.
var querySpans = map[string]bool{
	"algo.PageRank": true, "algo.BFS": true, "algo.IncBFS.Repair": true, "server.Request": true,
}

// runLayers is the traced pass: one set-up with spans, one untraced pass
// as the base, one pass with the benchmark's spans and the engine's own
// tracer on, then the probes. It reports every per-layer metric; those a
// workload does not exercise stay 0.
func runLayers(w *workloadSpec, seed uint64) (res *workloadResult, spans []span, err error) {
	rec := newRecorder(w.Name)
	inst, cleanup, _, setupLayers, err := setUp(w, seed, rec)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if cerr := cleanup(); err == nil {
			err = cerr
		}
	}()
	if err := inst.warm(); err != nil {
		return nil, nil, fmt.Errorf("%s: warm-up: %w", w.Name, err)
	}
	untraced, err := inst.pass(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	t := &tracing{rec: rec, tracer: trace.New(trace.Config{})}
	traced, err := inst.pass(t)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: traced: %w", w.Name, err)
	}
	summary := trace.Summarize(t.tracer.Collect())
	probes, err := inst.layers()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: probes: %w", w.Name, err)
	}
	checks, failed, err := inst.verify()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: verify: %w", w.Name, err)
	}
	res = &workloadResult{Name: w.Name}
	res.tally(untraced)
	res.tally(traced)
	res.Attempted += checks
	res.Failed += failed

	vals := map[string]float64{}
	for _, src := range []map[string]float64{setupLayers, traced.extra, untraced.extra, probes} {
		for k, v := range src {
			vals[k] = v
		}
	}
	spans = rec.all()
	ops := float64(traced.attempted())
	summaryLayers(summary, ops, vals)
	spanLayers(spans, vals)

	if _, ok := vals["trace.overhead_pct"]; !ok {
		base, with := median(opTimesMs([]passResult{untraced})), median(opTimesMs([]passResult{traced}))
		vals["trace.overhead_pct"] = 100 * (with - base) / base
	}
	vals["failed_share"] = res.failedShare()

	res.PerLayer = map[string]metricValue{}
	for _, s := range perLayer {
		v := vals[s.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a ratio over nothing; JSON cannot carry it
		}
		res.PerLayer[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	return res, spans, nil
}

// summaryLayers reads the engine's own trace: phase times on the
// coordinator, busy and wait time per stage summed over its procs, device
// requests and queue occupancy. Times and counts are per operation.
func summaryLayers(s *trace.Summary, ops float64, m map[string]float64) {
	if ops == 0 {
		return
	}
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / ops }
	for _, ph := range s.Phases {
		switch ph.Phase {
		case trace.PhaseSource:
			m["engine.phase_source_ms"] = ms(ph.NS)
		case trace.PhasePipeline:
			m["engine.phase_pipeline_ms"] = ms(ph.NS)
		case trace.PhaseMerge:
			m["engine.phase_merge_ms"] = ms(ph.NS)
		}
	}
	var flushes, flushed int64
	for _, st := range s.Stages {
		for _, op := range st.Ops {
			switch {
			case op.Op == trace.OpBinFlush:
				flushes += op.Instants
				flushed += op.ArgTotal
			case st.Stage == trace.StageScatter && op.Op == trace.OpSinkBuf:
				m["engine.scatter_busy_ms"] = ms(op.Hist.TotalNs)
			case st.Stage == trace.StageScatter && op.Op == trace.OpSinkWait:
				m["engine.scatter_wait_ms"] = ms(op.Hist.TotalNs)
			case st.Stage == trace.StageGather && op.Op == trace.OpGatherBin:
				m["engine.gather_busy_ms"] = ms(op.Hist.TotalNs)
			case st.Stage == trace.StageIO && op.Op == trace.OpIOWait:
				m["pipeline.io_wait_ms"] = ms(op.Hist.TotalNs)
			}
		}
	}
	if flushes > 0 {
		m["bin.records_per_flush"] = float64(flushed) / float64(flushes)
	}
	var requests, pages int64
	for _, d := range s.Devices {
		requests += d.Requests
		pages += d.Pages
	}
	m["pipeline.requests"] = float64(requests) / ops
	if requests > 0 {
		m["pipeline.pages_per_request"] = float64(pages) / float64(requests)
	}
	for _, q := range s.Queues {
		switch q.Op {
		case trace.OpFilledLen:
			m["pipeline.filled_queue_mean"] = q.Mean()
		case trace.OpFullLen:
			m["bin.full_queue_mean"] = q.Mean()
		}
	}
}

// spanLayers reads the benchmark's spans: per operation, the time inside
// EdgeMap and VertexMap calls, the operation's self time (its span minus
// what its children cover), and the rounds; and the medians of the update
// steps' spans. Operation figures are means over the traced operations, so
// that edgemap + vertexmap + self adds up to query_ms_traced.
func spanLayers(spans []span, m map[string]float64) {
	var queries, total, edgeMap, vertexMap, self, rounds float64
	for _, q := range spans {
		if !querySpans[q.Name] || q.EndNs < 0 {
			continue
		}
		queries++
		total += float64(q.dur())
		self += float64(selfNs(spans, q.ID))
		for _, c := range spans {
			if c.Parent != q.ID || c.EndNs < 0 {
				continue
			}
			switch c.Name {
			case "engine.EdgeMap":
				edgeMap += float64(c.dur())
				rounds++
			case "engine.VertexMap":
				vertexMap += float64(c.dur())
			}
		}
	}
	if queries > 0 {
		m["query_ms_traced"] = total / queries / 1e6
		m["engine.edgemap_ms"] = edgeMap / queries / 1e6
		m["engine.vertexmap_ms"] = vertexMap / queries / 1e6
		m["algo.self_ms"] = self / queries / 1e6
		m["algo.rounds"] = rounds / queries
	}
	for name, metric := range map[string]string{
		"engine.Dynamic.Seal": "engine.seal_ms",
		"algo.IncBFS.Repair":  "algo.repair_ms",
		"algo.BFSDepths":      "engine.multisource_bfs_ms",
	} {
		if d := named(spans, name); len(d) > 0 {
			m[metric] = median(d) / 1e6
		}
	}
}
