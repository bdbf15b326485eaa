package bench

import (
	"fmt"

	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/metrics"
	"blaze/internal/pagecache"
	"blaze/internal/registry"
	"blaze/internal/session"
	"blaze/internal/ssd"
)

// MultiQueryCounts are the concurrency levels the multiquery suite
// sweeps.
var MultiQueryCounts = []int{1, 2, 4, 8}

// MultiQueryEntry is one (engine, query, Q) measurement of the concurrent
// graph-session suite: Q replicas of the query executed against one
// shared session (shared page cache, per-device coalescing schedulers,
// DRR bandwidth sharing) after one warmup run of the same query.
type MultiQueryEntry struct {
	Engine string
	Query  string
	Q      int
	// MakespanNs is virtual time from concurrent launch to the last
	// query's completion (warmup excluded).
	MakespanNs int64
	// ReadBytes are device bytes the Q queries read; CoalescedPages are
	// page reads served by attaching to a peer's pending device read.
	ReadBytes      int64
	CoalescedPages int64
	// AggThroughputScale is Q×makespan(1)/makespan(Q) — aggregate query
	// throughput relative to the session's own Q=1 run (1.0 at Q=1; ideal
	// sharing approaches Q).
	AggThroughputScale float64
}

// MultiQueryRun measures Q concurrent replicas of query on engine over
// one warmed shared session and returns makespan, device bytes, and
// coalesced pages for the measured (post-warmup) window.
func MultiQueryRun(d *Dataset, engine, query string, q int) MultiQueryEntry {
	ctx := exec.NewSim()
	stats := metrics.NewIOStats(8)
	out, in := d.Graphs(ctx, 1, ssd.OptaneSSD, stats, nil)
	// A shared cache of half the forward adjacency: big enough that the
	// warmup leaves a useful working set, small enough that quota pressure
	// between queries is real.
	cache := pagecache.New(int64(d.CSR.NumPages()) * ssd.PageSize / 2)
	sess, err := session.New(ctx, out, in, session.Config{
		Engine: engine,
		Base: registry.Options{
			Edges:   d.CSR.E,
			Workers: 16,
			NumDev:  1,
			Profile: ssd.OptaneSSD,
			Stats:   stats,
		},
		Cache: cache,
		Stats: stats,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: multiquery: %v", err))
	}
	body := sessionBody(d, out, in, query)
	e := MultiQueryEntry{Engine: engine, Query: query, Q: q}
	ctx.Run("main", func(p exec.Proc) {
		// Warm the shared cache with one serial run of the same query.
		if _, err := sess.Run(p, body); err != nil {
			panic(fmt.Sprintf("bench: multiquery warmup: %v", err))
		}
		startNs := p.Now()
		startBytes := stats.TotalBytes()
		startCoal := stats.CoalescedPages()
		bodies := make([]session.Body, q)
		for i := range bodies {
			bodies[i] = body
		}
		qs, err := sess.Run(p, bodies...)
		if err != nil {
			panic(fmt.Sprintf("bench: multiquery: %v", err))
		}
		var end int64
		for _, qq := range qs {
			if qq.EndNs > end {
				end = qq.EndNs
			}
		}
		e.MakespanNs = end - startNs
		e.ReadBytes = stats.TotalBytes() - startBytes
		e.CoalescedPages = stats.CoalescedPages() - startCoal
	})
	return e
}

// sessionBody returns the session body that executes one replica of the
// named query (PageRank capped at 5 iterations). Replicas are identical —
// the warmed repeat-analytics workload where sharing pays most — and
// results are discarded (the concurrent conformance tests check answers;
// this is the perf harness).
func sessionBody(d *Dataset, out, in *engine.Graph, query string) session.Body {
	return func(p exec.Proc, q *session.Query) error {
		_, err := runQuery(q.Sys, p, query, out, in, d.Start, 5)
		return err
	}
}

// MultiQuerySnapshot sweeps Q over MultiQueryCounts for the session
// engines' flagship workload (blaze bfs, plus blaze spmv as the
// full-scan/maximal-coalescing case) and fills AggThroughputScale
// relative to each sweep's Q=1 entry.
func MultiQuerySnapshot(scale float64) []MultiQueryEntry {
	d := MustLoad("r2", scale)
	var entries []MultiQueryEntry
	for _, w := range []struct{ engine, query string }{
		{"blaze", "bfs"},
		{"blaze", "spmv"},
	} {
		var base int64
		for _, q := range MultiQueryCounts {
			e := MultiQueryRun(d, w.engine, w.query, q)
			if q == 1 {
				base = e.MakespanNs
			}
			if e.MakespanNs > 0 && base > 0 {
				e.AggThroughputScale = float64(q) * float64(base) / float64(e.MakespanNs)
			}
			entries = append(entries, e)
		}
	}
	return entries
}

// ExtMultiQuery tabulates MultiQuerySnapshot.
func ExtMultiQuery(scale float64) []Table {
	t := Table{
		ID:    "ext_multiquery",
		Title: "Concurrent graph session: Q identical queries on one warmed shared session (rmat27 preset)",
		Header: []string{"engine", "query", "Q", "makespan ms", "read MB", "coalesced pages",
			"aggregate throughput vs Q=1"},
	}
	for _, e := range MultiQuerySnapshot(scale) {
		t.Add(e.Engine, e.Query, e.Q, float64(e.MakespanNs)/1e6, float64(e.ReadBytes)/1e6,
			e.CoalescedPages, e.AggThroughputScale)
	}
	t.Notes = append(t.Notes,
		"Aggregate throughput is Q x makespan(1) / makespan(Q): ideal sharing approaches Q; TestMultiQueryScalingFloor holds BFS at Q=4 to at least 1.5x.")
	return []Table{t}
}
