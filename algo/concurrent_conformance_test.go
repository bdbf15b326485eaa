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
