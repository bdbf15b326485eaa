package main

import (
	"os"
	"time"

	"blaze/internal/bin"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/graph"
	"blaze/internal/pagecache"
	"blaze/internal/pipeline"
	"blaze/internal/queue"
	"blaze/internal/registry"
	"blaze/internal/ssd"
)

// A probe times one exported function in isolation on inputs taken from
// the workload. Probes explain an end-to-end move; none of them is gated.

// perUnit runs fn until minTime has passed (at least once) and returns
// nanoseconds per unit, fn reporting how many units one call processed.
func perUnit(minTime time.Duration, fn func() int64) float64 {
	var units int64
	t0 := time.Now()
	for {
		units += fn()
		if el := time.Since(t0); el >= minTime {
			if units == 0 {
				return 0
			}
			return float64(el) / float64(units)
		}
	}
}

const probeTime = 150 * time.Millisecond

func subsetOf(n uint32, vs []uint32) *frontier.VertexSubset {
	f := frontier.NewVertexSubset(n)
	for _, v := range vs {
		f.Add(v)
	}
	f.Seal()
	return f
}

// probeScan walks the pages of f's page frontier with a counting callback.
func probeScan(c *graph.CSR, f *frontier.VertexSubset, adj []byte) float64 {
	pages := frontier.PagesOf(f, c, 1).PerDev[0]
	var sink uint32
	ns := perUnit(probeTime, func() int64 {
		var edges int64
		for _, pg := range pages {
			lo := pg * graph.PageSize
			hi := lo + graph.PageSize
			if hi > int64(len(adj)) {
				hi = int64(len(adj))
			}
			_, e := engine.ForEachActiveEdge(c, f, pg, adj[lo:hi], func(s, d uint32) { sink += d })
			edges += e
		}
		return edges
	})
	_ = sink
	return ns
}

// padded reads an adjacency file and pads it to whole pages, as a device
// would return it.
func padded(path string) ([]byte, error) {
	adj, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if r := len(adj) % graph.PageSize; r != 0 {
		adj = append(adj, make([]byte, graph.PageSize-r)...)
	}
	return adj, nil
}

func (w *prDense) layers() (map[string]float64, error) {
	m := map[string]float64{}
	c := w.g.CSR
	all := frontier.All(c.V)

	m["frontier.pagesof_dense_ns_per_page"] = perUnit(probeTime, func() int64 {
		return frontier.PagesOf(all, c, 1).Pages()
	})

	const reqPages = 4
	buf := make([]byte, reqPages*ssd.PageSize)
	var readErr error
	w.ctx.Run("probe", func(p exec.Proc) {
		dev := w.g.Arr.Device(0)
		m["ssd.read_ns_per_page"] = perUnit(probeTime, func() int64 {
			var pages int64
			for pg := int64(0); pg+reqPages <= c.NumPages() && readErr == nil; pg += reqPages {
				readErr = dev.ReadPages(p, pg, reqPages, buf)
				pages += reqPages
			}
			return pages
		})
	})
	if readErr != nil {
		return nil, readErr
	}

	adj, err := padded(w.base + ".tgr.adj.0")
	if err != nil {
		return nil, err
	}
	m["engine.scan_ns_per_edge"] = probeScan(c, all, adj)

	emit, gather := probeBins(w.ctx, c.E, adj)
	m["bin.emit_ns_per_record"], m["bin.gather_ns_per_record"] = emit, gather

	cfg := registry.Options{Edges: c.E, Workers: realWorkers, NumDev: 1, Profile: unpaced, Pool: w.pool}.BlazeConfig()
	acc := make([]float64, c.V)
	edgeMap := func(cond bool) (float64, error) {
		var err error
		ns := perUnit(0, func() int64 {
			w.ctx.Run("probe", func(p exec.Proc) {
				_, _, err = engine.EdgeMap(w.ctx, p, w.g, all,
					func(s, d uint32) float64 { return 1 },
					func(d uint32, v float64) bool { acc[d] += v; return false },
					func(d uint32) bool { return cond }, false, cfg)
			})
			return c.E
		})
		return ns, err
	}
	if m["engine.edgemap_scanonly_ns_per_edge"], err = edgeMap(false); err != nil {
		return nil, err
	}
	if m["engine.edgemap_full_ns_per_edge"], err = edgeMap(true); err != nil {
		return nil, err
	}

	m["queue.ring_ns_per_item"] = probeRing()
	return m, nil
}

// probeBins emits the destination stream of adj through one stager into a
// manager whose full queue a single consumer drains, the way one scatter
// and one gather proc meet in EdgeMap. It returns producer ns per record
// emitted and consumer busy ns per record drained.
func probeBins(ctx exec.Context, edges int64, adj []byte) (emitNs, gatherNs float64) {
	const records = 4 << 20
	n := int64(records)
	if n > edges {
		n = edges
	}
	ecfg := engine.DefaultConfig(edges)
	ctx.Run("probe", func(p exec.Proc) {
		bm := bin.NewManager[float64](ctx, bin.Config{BinCount: ecfg.BinCount, SpaceBytes: ecfg.BinSpaceBytes, RecordBytes: 12})
		bm.Prime(p)
		st := bm.NewStager()
		var busy time.Duration
		var drained int64
		done := ctx.NewWaitGroup()
		done.Add(1)
		ctx.Go("probe-gather", func(gp exec.Proc) {
			var batch [pipeline.ClaimBatch]*bin.Buffer[float64]
			var acc float64
			for {
				k := bm.Full.PopBatch(gp, batch[:])
				if k == 0 {
					break
				}
				t0 := time.Now()
				for _, b := range batch[:k] {
					for _, r := range b.Records {
						acc += r.Val
					}
					drained += int64(len(b.Records))
					bm.Return(gp, b)
				}
				busy += time.Since(t0)
			}
			_ = acc
			done.Done(gp)
		})
		t0 := time.Now()
		for i := int64(0); i < n; i++ {
			st.Emit(p, graph.DecodeEdge(adj, int(i)*graph.EdgeBytes), 1)
		}
		st.FlushAll(p)
		emitNs = float64(time.Since(t0)) / float64(n)
		bm.FlushPartials(p)
		bm.CloseFull()
		done.Wait(p)
		if drained > 0 {
			gatherNs = float64(busy) / float64(drained)
		}
	})
	return emitNs, gatherNs
}

// probeRing moves items through a queue.Ring between two goroutines in the
// batches the pipeline uses.
func probeRing() float64 {
	const items = 1 << 21
	r := queue.NewRing[int](64)
	batch := make([]int, pipeline.ClaimBatch)
	done := make(chan struct{})
	t0 := time.Now()
	go func() {
		defer close(done)
		dst := make([]int, pipeline.ClaimBatch)
		for r.PopBatch(dst) > 0 {
		}
	}()
	for i := 0; i < items; i += len(batch) {
		r.PushN(batch)
	}
	r.Close()
	<-done
	return float64(time.Since(t0)) / items
}

func (w *bfsSparse) layers() (map[string]float64, error) {
	m := map[string]float64{}
	c := w.g.CSR
	if len(w.mid) == 0 {
		return m, nil
	}
	mid := subsetOf(c.V, w.mid)
	count := int64(len(w.mid))

	m["frontier.pagesof_sparse_ns_per_vertex"] = perUnit(probeTime, func() int64 {
		frontier.PagesOf(mid, c, 1)
		return count
	})

	// Two gather procs each hand MergeFrontiers half of the output.
	var mergeNs time.Duration
	var merged int64
	for mergeNs < probeTime {
		half := len(w.mid) / 2
		fronts := []*frontier.VertexSubset{subsetOf(c.V, w.mid[:half]), subsetOf(c.V, w.mid[half:])}
		t0 := time.Now()
		pipeline.MergeFrontiers(c.V, fronts)
		mergeNs += time.Since(t0) + 1
		merged += count
	}
	m["pipeline.mergefrontiers_ns_per_vertex"] = float64(mergeNs) / float64(merged)

	adj, err := padded(w.base + ".gr.adj.0")
	if err != nil {
		return nil, err
	}
	m["engine.scan_sparse_ns_per_edge"] = probeScan(c, mid, adj)

	// The fixed cost of one round: a pooled EdgeMap over a one-vertex
	// frontier, median of 200 calls.
	cfg := registry.Options{Edges: c.E, Workers: realWorkers, NumDev: 1, Profile: unpaced, Pool: w.pool}.BlazeConfig()
	one := frontier.Single(c.V, w.sources[0])
	seen := make([]bool, c.V)
	var calls []float64
	w.ctx.Run("probe", func(p exec.Proc) {
		for i := 0; i < 200 && err == nil; i++ {
			t0 := time.Now()
			_, _, err = engine.EdgeMap(w.ctx, p, w.g, one,
				func(s, d uint32) uint32 { return s },
				func(d uint32, v uint32) bool { seen[d] = true; return true },
				func(d uint32) bool { return true }, true, cfg)
			calls = append(calls, float64(time.Since(t0))/1e3)
		}
	})
	m["engine.edgemap_fixed_us"] = median(calls)
	return m, err
}

func (w *simPR) layers() (map[string]float64, error) {
	m := map[string]float64{}

	const procs, syncs = 16, 20000
	ctx := exec.NewSim()
	t0 := time.Now()
	ctx.Run("probe", func(p exec.Proc) {
		for i := 0; i < procs; i++ {
			ctx.Go("sync", func(q exec.Proc) {
				for k := 0; k < syncs; k++ {
					q.Advance(1)
					q.Sync()
				}
			})
		}
	})
	m["exec.sim_sync_ns"] = float64(time.Since(t0)) / (procs * syncs)

	const items = 200000
	ctx = exec.NewSim()
	t0 = time.Now()
	ctx.Run("probe", func(p exec.Proc) {
		q := exec.NewQueue[int](ctx, 64)
		ctx.Go("consumer", func(cp exec.Proc) {
			for {
				if _, ok := q.Pop(cp); !ok {
					return
				}
			}
		})
		for i := 0; i < items; i++ {
			p.Advance(1)
			q.Push(p, i)
		}
		q.Close()
	})
	m["exec.sim_queue_ns_per_item"] = float64(time.Since(t0)) / items

	const spawns = 5000
	ctx = exec.NewSim()
	t0 = time.Now()
	ctx.Run("probe", func(p exec.Proc) {
		for i := 0; i < spawns; i++ {
			wg := ctx.NewWaitGroup()
			wg.Add(1)
			ctx.Go("child", func(cp exec.Proc) { wg.Done(cp) })
			wg.Wait(p)
		}
	})
	m["exec.sim_spawn_us"] = float64(time.Since(t0)) / 1e3 / spawns
	return m, nil
}

// layers probes the page cache at the capacity serve_mix runs it with:
// half of the key space, so a full sweep of puts evicts on every insert
// once warm, and a probe of four-page runs hits about half the time.
func (w *serveMix) layers() (map[string]float64, error) {
	m := map[string]float64{}
	keys := w.gr.c.NumPages()
	cache := pagecache.New(keys * ssd.PageSize / 2)
	id := cache.GraphID("probe")
	page := make([]byte, ssd.PageSize)
	sweep := func() int64 {
		for k := int64(0); k < keys; k++ {
			cache.Put(pagecache.Key{Graph: id, Logical: k}, page)
		}
		return keys
	}
	sweep() // fill, so every later put evicts
	m["pagecache.put_evict_ns_per_page"] = perUnit(probeTime, sweep)

	const run = 4
	out := make([]byte, run*ssd.PageSize)
	m["pagecache.proberun_ns_per_page"] = perUnit(probeTime, func() int64 {
		for k := int64(0); k+run <= keys; k += run {
			cache.ProbeRun(id, k, 1, run, out)
		}
		return keys / run * run
	})
	return m, nil
}

func (w *ingestUpdate) layers() (map[string]float64, error) { return nil, nil }
