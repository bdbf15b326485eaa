// Concurrent-session conformance: K mixed queries executing concurrently
// against one shared graph session (shared page cache, cross-query read
// coalescing, DRR bandwidth sharing) must produce bit-identical results to
// the same queries run serially on private engines. Sharing the IO layer
// may only change modeled timing, never the bytes an algorithm sees.
package algo_test

import (
	"testing"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/fault"
	"blaze/internal/graph"
	"blaze/internal/pagecache"
	"blaze/internal/registry"
	"blaze/internal/session"
	"blaze/internal/ssd"
)

// sessionEngines are the registry entries that accept a shared session
// (graphene places its own devices and inmem performs no IO, so neither
// can share a scheduler).
var sessionEngines = []string{"blaze", "blaze-sync", "flashgraph"}

// mixedResults holds the answers of the four-query mixed workload:
// BFS(0), WCC, PageRank, SpMV.
type mixedResults struct {
	parent []int64
	ids    []uint32
	rank   []float64
	y      []float64
}

func spmvInput(c *graph.CSR) []float64 {
	x := make([]float64, c.V)
	r := gen.NewRNG(31)
	for i := range x {
		x[i] = float64(r.Intn(100))
	}
	return x
}

// serialMixed runs the four queries one after another, each on a private
// engine over its own fresh context — the reference execution.
func serialMixed(t *testing.T, name string, c *graph.CSR, devOpts ...ssd.DeviceOptions) mixedResults {
	t.Helper()
	var res mixedResults
	x := spmvInput(c)
	run := func(body func(p exec.Proc, sys algo.System, g, in *engine.Graph)) {
		ctx, sys, g, in := sysOn(t, name, c, devOpts...)
		ctx.Run("main", func(p exec.Proc) { body(p, sys, g, in) })
	}
	run(func(p exec.Proc, sys algo.System, g, in *engine.Graph) {
		res.parent = algo.Must(algo.BFS(sys, p, g, 0))
	})
	run(func(p exec.Proc, sys algo.System, g, in *engine.Graph) {
		res.ids = algo.Must(algo.WCC(sys, p, g, in))
	})
	run(func(p exec.Proc, sys algo.System, g, in *engine.Graph) {
		res.rank = algo.Must(algo.PageRank(sys, p, g, 1e-6, 10))
	})
	run(func(p exec.Proc, sys algo.System, g, in *engine.Graph) {
		res.y = algo.Must(algo.SpMV(sys, p, g, x))
	})
	return res
}

// concurrentMixed runs the same four queries concurrently against one
// shared session and returns their answers plus the per-query handles.
func concurrentMixed(t *testing.T, name string, c *graph.CSR, pc *pagecache.Cache, devOpts ...ssd.DeviceOptions) (mixedResults, []*session.Query) {
	t.Helper()
	ctx := exec.NewSim()
	out := engine.FromCSR(ctx, "conf", c, 1, ssd.OptaneSSD, nil, nil, devOpts...)
	in := engine.FromCSR(ctx, "conf.t", c.Transpose(), 1, ssd.OptaneSSD, nil, nil, devOpts...)
	sess, err := session.New(ctx, out, in, session.Config{
		Engine: name,
		Base: registry.Options{
			Edges:   c.E,
			Workers: 4,
			NumDev:  1,
			Profile: ssd.OptaneSSD,
			DevOpts: devOpts,
		},
		Cache: pc,
	})
	if err != nil {
		t.Fatalf("session.New(%q): %v", name, err)
	}
	var res mixedResults
	x := spmvInput(c)
	bodies := []session.Body{
		func(p exec.Proc, q *session.Query) error {
			r, err := algo.BFS(q.Sys, p, out, 0)
			res.parent = r
			return err
		},
		func(p exec.Proc, q *session.Query) error {
			r, err := algo.WCC(q.Sys, p, out, in)
			res.ids = r
			return err
		},
		func(p exec.Proc, q *session.Query) error {
			r, err := algo.PageRank(q.Sys, p, out, 1e-6, 10)
			res.rank = r
			return err
		},
		func(p exec.Proc, q *session.Query) error {
			r, err := algo.SpMV(q.Sys, p, out, x)
			res.y = r
			return err
		},
	}
	var qs []*session.Query
	ctx.Run("main", func(p exec.Proc) {
		var err error
		qs, err = sess.Run(p, bodies...)
		if err != nil {
			t.Errorf("%s: session.Run: %v", name, err)
		}
	})
	return res, qs
}

// diffMixed reports the first divergence between two mixed-workload runs.
// Comparisons are bit-exact, including the float vectors: each query's
// internal reduction order is fixed by its engine, so sharing the IO layer
// must not change a single bit.
func diffMixed(t *testing.T, label string, serial, conc mixedResults) {
	t.Helper()
	for v := range serial.parent {
		if serial.parent[v] != conc.parent[v] {
			t.Errorf("%s: bfs parent[%d] = %d serial, %d concurrent", label, v, serial.parent[v], conc.parent[v])
			break
		}
	}
	for v := range serial.ids {
		if serial.ids[v] != conc.ids[v] {
			t.Errorf("%s: wcc[%d] = %d serial, %d concurrent", label, v, serial.ids[v], conc.ids[v])
			break
		}
	}
	for v := range serial.rank {
		if serial.rank[v] != conc.rank[v] {
			t.Errorf("%s: rank[%d] = %g serial, %g concurrent (must be bit-identical)",
				label, v, serial.rank[v], conc.rank[v])
			break
		}
	}
	for v := range serial.y {
		if serial.y[v] != conc.y[v] {
			t.Errorf("%s: spmv y[%d] = %g serial, %g concurrent (must be bit-identical)",
				label, v, serial.y[v], conc.y[v])
			break
		}
	}
}

// TestConcurrentConformance: on every session-capable engine the mixed
// workload run concurrently through one session — with and without a
// shared page cache — matches the serial reference bit for bit, and every
// query's IO is attributed to it.
func TestConcurrentConformance(t *testing.T) {
	c := randomCSR(41, 1500)
	for _, name := range sessionEngines {
		serial := serialMixed(t, name, c)
		for _, cached := range []bool{false, true} {
			label := name + "/uncached"
			var pc *pagecache.Cache
			if cached {
				label = name + "/cached"
				pc = pagecache.New(1 << 30)
			}
			conc, qs := concurrentMixed(t, name, c, pc)
			diffMixed(t, label, serial, conc)
			if len(qs) != 4 {
				t.Fatalf("%s: session ran %d queries, want 4", label, len(qs))
			}
			var reads int64
			for _, q := range qs {
				if q.Err != nil {
					t.Errorf("%s: query %d failed: %v", label, q.ID, q.Err)
				}
				reads += q.IO.PagesRead() + q.IO.CoalescedPages()
			}
			if reads == 0 {
				t.Errorf("%s: no IO attributed to any query", label)
			}
		}
	}
}

// TestConcurrentConformanceFaults: the same bit-identity must hold while
// transient device faults exercise the retry path under all queries at
// once — shared schedulers must not reorder, drop, or cross-wire retried
// reads between queries.
func TestConcurrentConformanceFaults(t *testing.T) {
	c := randomCSR(53, 1200)
	opts := fault.Policy{Seed: 6, TransientRate: 0.2, TransientFails: 1}.DeviceOptions()
	for _, name := range sessionEngines {
		serial := serialMixed(t, name, c, opts)
		conc, qs := concurrentMixed(t, name, c, pagecache.New(1<<30), opts)
		diffMixed(t, name+"/transient", serial, conc)
		for _, q := range qs {
			if q.Err != nil {
				t.Errorf("%s: query %d failed under transient faults: %v", name, q.ID, q.Err)
			}
		}
	}
}

// TestConcurrentConformancePermanentFault: a permanently unreadable device
// fails every query with the device error — cleanly, no panic, no hang —
// and the error is reported on each query handle.
func TestConcurrentConformancePermanentFault(t *testing.T) {
	c := randomCSR(5, 600)
	opts := fault.Policy{Seed: 9, PermanentRate: 1}.DeviceOptions()
	for _, name := range sessionEngines {
		ctx := exec.NewSim()
		out := engine.FromCSR(ctx, "conf", c, 1, ssd.OptaneSSD, nil, nil, opts)
		sess, err := session.New(ctx, out, nil, session.Config{
			Engine: name,
			Base: registry.Options{
				Edges:   c.E,
				Workers: 4,
				NumDev:  1,
				Profile: ssd.OptaneSSD,
				DevOpts: []ssd.DeviceOptions{opts},
			},
		})
		if err != nil {
			t.Fatalf("session.New(%q): %v", name, err)
		}
		body := func(p exec.Proc, q *session.Query) error {
			_, err := algo.BFS(q.Sys, p, out, 0)
			return err
		}
		var qs []*session.Query
		ctx.Run("main", func(p exec.Proc) {
			qs, _ = sess.Run(p, body, body)
		})
		for _, q := range qs {
			if q.Err == nil {
				t.Errorf("%s: query %d succeeded with every page permanently faulted", name, q.ID)
			}
		}
	}
}

// asyncMixed runs the four-query mixed workload on blaze-async with a
// forced wave budget — serially on private engines when sess is false,
// concurrently through one shared session otherwise. PageRank runs to
// convergence (maxIter 0): the async contract is the converged answer,
// not a fixed-round trajectory.
func asyncMixed(t *testing.T, c *graph.CSR, sess bool, pc *pagecache.Cache, devOpts ...ssd.DeviceOptions) (mixedResults, int64) {
	t.Helper()
	var res mixedResults
	x := spmvInput(c)
	base := registry.Options{
		Edges:          c.E,
		Workers:        4,
		NumDev:         1,
		Profile:        ssd.OptaneSSD,
		DevOpts:        devOpts,
		AsyncWavePages: 3,
	}
	if !sess {
		run := func(body func(p exec.Proc, sys algo.System, g, in *engine.Graph)) {
			ctx := exec.NewSim()
			out := engine.FromCSR(ctx, "conf", c, 1, ssd.OptaneSSD, nil, nil, devOpts...)
			in := engine.FromCSR(ctx, "conf.t", c.Transpose(), 1, ssd.OptaneSSD, nil, nil, devOpts...)
			opts := base
			opts.PageCache = pc
			sys, err := registry.New("blaze-async", ctx, opts)
			if err != nil {
				t.Fatalf("registry.New(blaze-async): %v", err)
			}
			ctx.Run("main", func(p exec.Proc) { body(p, sys, out, in) })
		}
		run(func(p exec.Proc, sys algo.System, g, in *engine.Graph) {
			res.parent = algo.Must(algo.BFS(sys, p, g, 0))
		})
		run(func(p exec.Proc, sys algo.System, g, in *engine.Graph) {
			res.ids = algo.Must(algo.WCC(sys, p, g, in))
		})
		run(func(p exec.Proc, sys algo.System, g, in *engine.Graph) {
			res.rank = algo.Must(algo.PageRank(sys, p, g, 1e-6, 0))
		})
		run(func(p exec.Proc, sys algo.System, g, in *engine.Graph) {
			res.y = algo.Must(algo.SpMV(sys, p, g, x))
		})
		return res, 0
	}
	ctx := exec.NewSim()
	out := engine.FromCSR(ctx, "conf", c, 1, ssd.OptaneSSD, nil, nil, devOpts...)
	in := engine.FromCSR(ctx, "conf.t", c.Transpose(), 1, ssd.OptaneSSD, nil, nil, devOpts...)
	s, err := session.New(ctx, out, in, session.Config{
		Engine: "blaze-async",
		Base:   base,
		Cache:  pc,
	})
	if err != nil {
		t.Fatalf("session.New(blaze-async): %v", err)
	}
	bodies := []session.Body{
		func(p exec.Proc, q *session.Query) error {
			r, err := algo.BFS(q.Sys, p, out, 0)
			res.parent = r
			return err
		},
		func(p exec.Proc, q *session.Query) error {
			r, err := algo.WCC(q.Sys, p, out, in)
			res.ids = r
			return err
		},
		func(p exec.Proc, q *session.Query) error {
			r, err := algo.PageRank(q.Sys, p, out, 1e-6, 0)
			res.rank = r
			return err
		},
		func(p exec.Proc, q *session.Query) error {
			r, err := algo.SpMV(q.Sys, p, out, x)
			res.y = r
			return err
		},
	}
	ctx.Run("main", func(p exec.Proc) {
		qs, err := s.Run(p, bodies...)
		if err != nil {
			t.Errorf("blaze-async: session.Run: %v", err)
		}
		for _, q := range qs {
			if q.Err != nil {
				t.Errorf("blaze-async: query %d failed: %v", q.ID, q.Err)
			}
		}
	})
	return res, ctx.End
}

// TestConcurrentConformanceAsync: blaze-async queries sharing one
// session. Without a cache, wave selection depends only on each query's
// own active set, so the concurrent run is bit-identical to serial —
// all four queries, floats included. With a shared cache the heat signal
// couples wave order to the other queries' timing, so the exact queries
// (BFS forest/depths, WCC labels, SpMV) must still match bit for bit
// while PageRank must agree within convergence tolerance.
func TestConcurrentConformanceAsync(t *testing.T) {
	c := randomCSR(63, 8000)
	refDepth := algo.RefBFSDepth(c, 0)
	serial, _ := asyncMixed(t, c, false, nil)
	conc, _ := asyncMixed(t, c, true, nil)
	diffMixed(t, "blaze-async/uncached", serial, conc)

	cached, _ := asyncMixed(t, c, true, pagecache.New(1<<30))
	if v, ok := algo.CheckParents(c, 0, cached.parent, refDepth); !ok {
		t.Errorf("blaze-async/cached: BFS forest invalid at vertex %d", v)
	}
	for v := range serial.ids {
		if serial.ids[v] != cached.ids[v] {
			t.Errorf("blaze-async/cached: wcc[%d] = %d serial, %d concurrent", v, serial.ids[v], cached.ids[v])
			break
		}
	}
	for v := range serial.y {
		if serial.y[v] != cached.y[v] {
			t.Errorf("blaze-async/cached: spmv y[%d] = %g serial, %g concurrent", v, serial.y[v], cached.y[v])
			break
		}
	}
	for v := range serial.rank {
		if d := serial.rank[v] - cached.rank[v]; d > 1e-4*serial.rank[v]+1e-9 || -d > 1e-4*serial.rank[v]+1e-9 {
			t.Errorf("blaze-async/cached: rank[%d] = %g serial, %g concurrent (beyond tolerance)", v, serial.rank[v], cached.rank[v])
			break
		}
	}
}

// TestConcurrentConformanceAsyncDeterministic: two same-seed concurrent
// async runs with a shared cache are bit-identical in results and
// virtual makespan — the heat-signal coupling is deterministic under sim.
func TestConcurrentConformanceAsyncDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full concurrent async sessions; skipped in -short mode")
	}
	c := randomCSR(63, 8000)
	run1, end1 := asyncMixed(t, c, true, pagecache.New(1<<20))
	run2, end2 := asyncMixed(t, c, true, pagecache.New(1<<20))
	diffMixed(t, "blaze-async/same-seed", run1, run2)
	if end1 != end2 {
		t.Errorf("makespan %d ns run1, %d ns run2 (same-seed concurrent async must be deterministic)", end1, end2)
	}
}

// TestConcurrentConformanceAsyncFaults: transient faults under the
// shared session leave the uncached concurrent run bit-identical to
// serial — retries change timing, never bytes. The injector re-faults a
// healed page on its next fresh device read, so a multi-page run with k
// faulty pages needs 2^k attempts to clear end-to-end; the leg raises
// the retry budget above that so the coalesced session runs (which merge
// more pages than any serial run) stay within budget. A permanently
// unreadable device fails every async query with a clean error on its
// handle.
func TestConcurrentConformanceAsyncFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("faulted serial and concurrent async sessions; skipped in -short mode")
	}
	c := randomCSR(63, 8000)
	transient := fault.Policy{Seed: 6, TransientRate: 0.2, TransientFails: 1}.DeviceOptions()
	transient.Retry = &ssd.RetryPolicy{MaxRetries: 256, BackoffNs: 10_000}
	serial, _ := asyncMixed(t, c, false, nil, transient)
	conc, _ := asyncMixed(t, c, true, nil, transient)
	diffMixed(t, "blaze-async/transient", serial, conc)

	permanent := fault.Policy{Seed: 9, PermanentRate: 1}.DeviceOptions()
	ctx := exec.NewSim()
	out := engine.FromCSR(ctx, "conf", c, 1, ssd.OptaneSSD, nil, nil, permanent)
	s, err := session.New(ctx, out, nil, session.Config{
		Engine: "blaze-async",
		Base: registry.Options{
			Edges:          c.E,
			Workers:        4,
			NumDev:         1,
			Profile:        ssd.OptaneSSD,
			DevOpts:        []ssd.DeviceOptions{permanent},
			AsyncWavePages: 3,
		},
	})
	if err != nil {
		t.Fatalf("session.New(blaze-async): %v", err)
	}
	body := func(p exec.Proc, q *session.Query) error {
		_, err := algo.BFS(q.Sys, p, out, 0)
		return err
	}
	var qs []*session.Query
	ctx.Run("main", func(p exec.Proc) {
		qs, _ = s.Run(p, body, body)
	})
	for _, q := range qs {
		if q.Err == nil {
			t.Errorf("blaze-async: query %d succeeded with every page permanently faulted", q.ID)
		}
	}
}
