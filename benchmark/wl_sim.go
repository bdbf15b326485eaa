package main

import (
	"fmt"
	"slices"
	"time"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/loadgen"
	"blaze/internal/metrics"
	"blaze/internal/pagecache"
	"blaze/internal/registry"
	"blaze/internal/server"
	"blaze/internal/session"
	"blaze/internal/ssd"
)

// ------------------------------------------------------------------ sim_pr

type simPR struct {
	gr       *generated
	edges    int64
	rank     []float64
	makespan int64 // modeled ns of the first run; every later run must equal it
}

func newSimPR(e *env) (instance, error) {
	gr, err := generate(e, "r2", simPRScale)
	if err != nil {
		return nil, err
	}
	w := &simPR{gr: gr}
	e.reference(func() { w.edges = prActiveEdges(gr.tr, prIters) })
	return w, nil
}

// pageRank runs the five iterations under a fresh virtual-time context
// (bench.Run's configuration) and returns the sample and the modeled
// makespan.
func (w *simPR) pageRank(t *tracing, query int) (opSample, int64, error) {
	ctx := exec.NewSim()
	stats := metrics.NewIOStats(1)
	g := engine.FromCSR(ctx, w.gr.preset.Name+".t", w.gr.tr, 1, ssd.OptaneSSD, stats, nil)
	g.Locality = w.gr.preset.Locality
	sys, err := registry.New("blaze", ctx, registry.Options{
		Edges: w.gr.tr.E, Workers: simWorkers, NumDev: 1, Profile: ssd.OptaneSSD,
		Stats: stats, Tracer: t.engineTracer(),
	})
	if err != nil {
		return opSample{}, 0, err
	}
	s, err := measure(stats, func() error {
		return traceQuery(t, "algo.PageRank", query, sys, func(traced algo.System) (err error) {
			ctx.Run("main", func(p exec.Proc) {
				w.rank, _, err = algo.PageRankDrive(algo.DriverFor(sys), traced, p, g, prEps, algo.Convergence{MaxIters: prIters})
			})
			return err
		})
	})
	s.Edges = w.edges
	return s, ctx.End, err
}

func (w *simPR) warm() error {
	_, ms, err := w.pageRank(nil, -1)
	w.makespan = ms
	return err
}

func (w *simPR) pass(t *tracing) (passResult, error) {
	s, ms, err := w.pageRank(t, 0)
	res := passResult{ops: []opSample{s}, extra: map[string]float64{"model_makespan_ms": float64(ms) / 1e6}}
	if ms != w.makespan {
		// Model time is deterministic, traced or not; a run that disagrees
		// with the first is wrong even if its ranks are right.
		res.failed++
	}
	return res, err
}

func (w *simPR) verify() (int, int, error) {
	return 1, rankMismatch(w.rank, algo.RefPageRankDelta(w.gr.tr, prEps, prIters)), nil
}

func (w *simPR) close() error { return nil }

// --------------------------------------------------------------- serve_mix

type serveMix struct {
	gr       *generated
	sources  []uint32
	depths   [][]int32 // reference depths per source
	srcEdges []int64   // edges one BFS from each source scans
	seed     uint64
	// r2 keeps the counters of the last run at R2 for the layer metrics.
	r2 *rateResult
}

func newServeMix(e *env) (instance, error) {
	gr, err := generate(e, "r2", serveScale)
	if err != nil {
		return nil, err
	}
	w := &serveMix{gr: gr, seed: e.seed}
	e.reference(func() {
		w.sources, _, w.srcEdges = drawSources(gr.c, e.seed, serveSources)
		for _, s := range w.sources {
			w.depths = append(w.depths, algo.RefBFSDepth(gr.c, s))
		}
	})
	if len(w.sources) < serveSources {
		return nil, fmt.Errorf("serve_mix: only %d of %d sources reach %.0f%% of the graph", len(w.sources), serveSources, 100*bfsMinReachShare)
	}
	return w, nil
}

// rateResult is what one offered rate produced.
type rateResult struct {
	sample   opSample // host cost of the whole rate run, reference checks taken out
	offered  int
	rejected int
	expired  int
	late     int
	onTime   int
	wrong    int       // wrong results, failed bodies, broken accounting
	edges    int64     // reference edges of the requests that executed
	latency  []float64 // interactive, model ms from the instant the request was due
	wait     []float64 // interactive, model ms admitted -> started
	service  []float64 // interactive, model ms started -> ended
	windowNs int64     // first due instant -> drained, model ns
	lateness int64     // how late the generator submitted, model ns, max
	cache    metrics.CacheStats
	devPages int64
	coalesce int64
}

// runRate offers n requests at rate req/model-s to a fresh session and
// server, open loop: arrivals follow a seeded Poisson schedule whatever
// the server is doing, and latency counts from the instant a request was
// due. Three in four are interactive BFS from one of the seeded sources
// with the fixed deadline; the rest are batch SpMV.
func (w *serveMix) runRate(t *tracing, rate float64, n int) (*rateResult, error) {
	c := w.gr.c
	ctx := exec.NewSim()
	dev := metrics.NewIOStats(1)
	out := engine.FromCSR(ctx, w.gr.preset.Name, c, 1, ssd.OptaneSSD, dev, nil)
	out.Locality = w.gr.preset.Locality
	cache := pagecache.New(c.NumPages() * ssd.PageSize / 2)
	shared := metrics.NewIOStats(1)
	sess, err := session.New(ctx, out, nil, session.Config{
		Engine: "blaze",
		Base: registry.Options{
			Edges: c.E, Workers: simWorkers, NumDev: 1, Profile: ssd.OptaneSSD,
			Tracer: t.engineTracer(),
		},
		Cache:      cache,
		MaxQueries: serveSlots,
		Stats:      shared,
	})
	if err != nil {
		return nil, err
	}
	srv := server.New(ctx, sess, server.Config{Slots: serveSlots, QueueDepth: serveQueueDepth})
	rec := t.recorder()
	res := &rateResult{offered: n}
	var checkNs time.Duration // reference time inside bodies, taken out of the host time

	// system returns the engine a body runs on: the query's own, under the
	// request's span when traced.
	system := func(q *session.Query, parent, id int) algo.System {
		if rec == nil {
			return q.Sys
		}
		return &spanSystem{System: q.Sys, rec: rec, parent: parent, query: id, model: true}
	}
	bfs := func(src, parent, id int) session.Body {
		return func(p exec.Proc, q *session.Query) error {
			tree, err := algo.BFS(system(q, parent, id), p, out, w.sources[src])
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, ok := algo.CheckParents(c, w.sources[src], tree, w.depths[src]); !ok {
				res.wrong++
			}
			checkNs += time.Since(t0)
			return nil
		}
	}
	spmv := func(parent, id int) session.Body {
		return func(p exec.Proc, q *session.Query) error {
			x := make([]float64, c.V)
			for i := range x {
				x[i] = 1
			}
			y, err := algo.SpMV(system(q, parent, id), p, out, x)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if sum(y) != float64(c.E) {
				res.wrong++
			}
			checkNs += time.Since(t0)
			return nil
		}
	}

	arrivals := loadgen.NewArrivals(loadgen.Config{
		RatePerSec: rate, Requests: n, Process: loadgen.Poisson, Seed: w.seed,
		Classes: []loadgen.Class{{Name: "bfs", Weight: 3}, {Name: "spmv", Weight: 1}},
	})
	pick := gen.NewRNG(w.seed ^ 0x5e17e)
	edges := make([]int64, n)
	var runErr error
	ctx.Run("main", func(p exec.Proc) {
		// One request of each class first, so the shared cache is warm
		// when the clock of the measurement starts.
		if _, err := sess.Run(p, bfs(0, -1, -1)); err != nil {
			runErr = err
			return
		}
		if _, err := sess.Run(p, spmv(-1, -1)); err != nil {
			runErr = err
			return
		}
		res.wrong, checkNs = 0, 0
		srv.Start()

		pages0 := dev.PagesRead()
		host := startMeter(dev)

		start := p.Now()
		due := start
		for i := 0; i < n; i++ {
			waitNs, class := arrivals.Next()
			due += waitNs
			if now := p.Now(); now < due {
				p.Advance(due - now)
			}
			if l := p.Now() - due; l > res.lateness {
				res.lateness = l
			}
			id, dueAt := i, due
			span := rec.beginAt("server.Request", -1, id, dueAt)
			req := &server.Request{Name: "spmv", Class: server.Batch, Body: spmv(span, id)}
			edges[i] = c.E
			if class == 0 {
				src := pick.Intn(serveSources)
				req = &server.Request{Name: "bfs", Class: server.Interactive, TimeoutNs: serveDeadlineNs, Body: bfs(src, span, id)}
				edges[i] = w.srcEdges[src]
			}
			req.OnDone = func(o server.Outcome) {
				rec.endAt(span, o.EndNs)
				switch o.Status {
				case server.StatusOK:
					res.onTime++
				case server.StatusLate:
					res.late++
				case server.StatusExpired:
					res.expired++
				default:
					res.wrong++
				}
				if o.Status != server.StatusOK && o.Status != server.StatusLate {
					return
				}
				res.edges += edges[id]
				if o.Class == server.Interactive {
					res.latency = append(res.latency, float64(o.EndNs-dueAt)/1e6)
					res.wait = append(res.wait, float64(o.StartNs-o.ArriveNs)/1e6)
					res.service = append(res.service, float64(o.EndNs-o.StartNs)/1e6)
				}
			}
			if err := srv.Submit(p, req); err != nil {
				rec.endAt(span, p.Now())
				res.rejected++
			}
		}
		srv.Drain(p)
		res.windowNs = p.Now() - start

		res.sample = host.stop()
		res.sample.Ns -= int64(checkNs)
		res.sample.Edges = res.edges
		res.devPages = dev.PagesRead() - pages0

		// Every admitted request must be accounted for, class by class.
		rep := srv.Report(res.windowNs)
		var done int64
		for _, cl := range rep.Classes {
			if cl.Submitted != cl.Completed+cl.Expired+cl.Failed {
				res.wrong++
			}
			done += cl.Completed + cl.Expired + cl.Failed
		}
		if done != int64(res.onTime+res.late+res.expired) || rep.Rejected != int64(res.rejected) {
			res.wrong++
		}
	})
	res.cache = cache.StatsDetail()
	res.coalesce = shared.CoalescedPages()
	return res, runErr
}

func (w *serveMix) warm() error {
	_, err := w.runRate(nil, serveRates[0], serveWarmupReqs)
	return err
}

// pass is one sweep over the three rates; its one sample is the host cost
// per offered request averaged over the sweep. The traced pass offers R2
// only: that is where the layer counters are read, and model time there
// must not move when tracing is on.
func (w *serveMix) pass(t *tracing) (passResult, error) {
	if t != nil {
		return w.tracedPass(t)
	}
	var rates [len(serveRates)]*rateResult
	var total opSample
	res := passResult{extra: map[string]float64{}}
	for k, rate := range serveRates {
		r, err := w.runRate(nil, rate, serveRequests)
		if err != nil {
			return res, err
		}
		rates[k] = r
		res.offered += r.offered
		total.Ns += r.sample.Ns
		total.Allocs += r.sample.Allocs
		total.AllocBytes += r.sample.AllocBytes
		total.ReadBytes += r.sample.ReadBytes
		total.Edges += r.sample.Edges
		res.failed += r.wrong
		res.shed += r.rejected + r.expired + r.late
		tag := fmt.Sprintf(".r%d", k+1)
		res.extra["server.reject_share"+tag] = float64(r.rejected) / float64(r.offered)
		res.extra["server.expired_share"+tag] = float64(r.expired) / float64(r.offered)
		res.extra["server.late_share"+tag] = float64(r.late) / float64(r.offered)
		if l := float64(r.lateness) / 1e6; l > res.extra["loadgen.lateness_model_ms_max"] {
			res.extra["loadgen.lateness_model_ms_max"] = l
		}
		// The highest rate that keeps the interactive p90 inside the
		// deadline with nothing refused or expired.
		if r.rejected == 0 && r.expired == 0 && nearestRank(r.latency, 90) <= serveDeadlineNs/1e6 {
			res.extra["slo_rate_per_model_s"] = rate
		}
	}
	res.ops = []opSample{perRequest(total, res.offered)}
	r2, r3 := rates[1], rates[2]
	w.r2 = r2
	res.extra["lat_p50_model_ms"] = nearestRank(r2.latency, 50)
	res.extra["lat_p90_model_ms"] = nearestRank(r2.latency, 90)
	res.extra["goodput_per_model_s"] = float64(r3.onTime) / (float64(r3.windowNs) / 1e9)
	res.extra["server.queue_wait_model_ms_p50"] = nearestRank(r2.wait, 50)
	res.extra["server.queue_wait_model_ms_p90"] = nearestRank(r2.wait, 90)
	res.extra["session.service_model_ms_p50"] = nearestRank(r2.service, 50)
	res.extra["pagecache.hit_rate"] = r2.cache.HitRate()
	res.extra["pagecache.evictions"] = float64(r2.cache.Evictions)
	if all := r2.devPages + r2.coalesce; all > 0 {
		res.extra["iosched.coalesced_page_share"] = float64(r2.coalesce) / float64(all)
	}
	return res, nil
}

func perRequest(total opSample, offered int) opSample {
	n := int64(offered)
	return opSample{Ns: total.Ns / n, Allocs: total.Allocs / n, AllocBytes: total.AllocBytes / n,
		ReadBytes: total.ReadBytes / n, Edges: total.Edges / n}
}

func (w *serveMix) tracedPass(t *tracing) (passResult, error) {
	r, err := w.runRate(t, serveRates[1], serveRequests)
	if err != nil {
		return passResult{}, err
	}
	res := passResult{
		ops: []opSample{perRequest(r.sample, r.offered)}, offered: r.offered,
		failed: r.wrong, shed: r.rejected + r.expired + r.late, extra: map[string]float64{},
	}
	if base := w.r2; base != nil {
		res.extra["trace.overhead_pct"] = 100 * float64(r.sample.Ns-base.sample.Ns) / float64(base.sample.Ns)
		if !slices.Equal(r.latency, base.latency) {
			res.failed++ // tracing moved model time
		}
	}
	return res, nil
}

// verify has nothing retained to check: every request's result is checked
// as it completes, outside the timed window.
func (w *serveMix) verify() (int, int, error) { return 0, 0, nil }

func (w *serveMix) close() error { return nil }
