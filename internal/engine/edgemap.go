package engine

import (
	"strconv"

	"blaze/internal/bin"
	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/pipeline"
	"blaze/internal/ssd"
	"blaze/internal/trace"
)

// scatterNames and gatherNames name EdgeMap's first compute procs, built
// once rather than formatted every round; procName formats any past them.
var scatterNames, gatherNames = procNames("scatter"), procNames("gather")

func procNames(prefix string) (names [64]string) {
	for i := range names {
		names[i] = prefix + strconv.Itoa(i)
	}
	return names
}

func procName(names *[64]string, prefix string, i int) string {
	if i < len(names) {
		return names[i]
	}
	return prefix + strconv.Itoa(i)
}

// Stats summarizes one EdgeMap execution.
type Stats struct {
	PagesRead     int64
	EdgesScanned  int64
	Records       int64
	VerticesMoved int64 // output frontier size
}

// EdgeMap executes the two edge functions over the edges whose source
// vertices are in f (§IV-B):
//
//	scatter(s, d)  returns the value to propagate along edge s→d; called
//	               only when cond(d) is true.
//	gather(d, v)   accumulates v into d's algorithm data; its boolean
//	               return activates d in the output frontier.
//	cond(d)        prunes propagation (e.g. "not yet visited").
//
// When output is true the new frontier is returned; otherwise nil.
// The value flow runs through online binning, so gather needs no atomics.
//
// The storage side — page-frontier conversion, per-device readers, page
// cache and scheduler routing, buffer queues, drain-and-recycle shutdown —
// is pipeline.Open; this file contributes the bin-scatter/gather compute
// sink and the pool that carries buffers from one round to the next.
//
// EdgeMap fails cleanly: on the first unrecoverable device error (after
// the device's retry policy is exhausted) the pipeline stops issuing IO,
// drains every IO/scatter/gather proc, closes all queues, restocks the
// pool, and returns a non-nil error with a nil frontier. Partial gather
// updates may have been applied before the failure was detected; callers
// must treat the whole call as failed.
func EdgeMap[V any](ctx exec.Context, p exec.Proc, g *Graph, f *frontier.VertexSubset,
	scatter func(s, d uint32) V,
	gather func(d uint32, v V) bool,
	cond func(d uint32) bool,
	output bool, cfg Config) (*frontier.VertexSubset, Stats, error) {

	var st Stats
	if err := cfg.validate(); err != nil {
		return nil, st, err
	}
	m := cfg.Model
	c := g.CSR
	computeProcs := cfg.ScatterProcs + cfg.GatherProcs
	pool := cfg.Pool

	// Steps 1-4: vertex frontier -> per-device page frontiers -> stocked IO
	// buffers and one reader per source and device. A graph with sealed
	// delta segments (Graph.Segs) iterates as [base, seg0, seg1, ...]; a
	// segment-free graph is the single-source seed path, operation for
	// operation.
	sources := append([]*Graph{g}, g.Segs...)
	rd := pool.takeRound()
	fr, err := pipeline.Reopen(rd.fr, ctx, p, f, cfg.FrontSpec("io", sources...))
	if fr == nil {
		pool.putRound(rd)
		if err != nil || !output {
			return nil, st, err
		}
		return frontier.Renew(pool.takeSpare(c.V), c.V), st, nil
	}
	if cfg.Mem != nil {
		cfg.Mem.Set("io-buffers", fr.BufferBytes())
	}

	// Online bins (steps 6, 8) and one stager per scatter proc, retained
	// from the previous round when the pool holds a matching set.
	recordBytes := 4 + approxValBytes[V]()
	bins := openBins[V](pool, ctx, p, bin.Config{
		BinCount:    cfg.BinCount,
		SpaceBytes:  cfg.BinSpaceBytes,
		RecordBytes: recordBytes,
		StageCap:    cfg.StageCap,
		FlushCostNs: m.BinFlush,
	}, cfg.ScatterProcs)
	bm := bins.bm
	if cfg.Mem != nil {
		cfg.Mem.Set("bin-space", bm.MemBytes(recordBytes))
		cfg.Mem.Set("frontier", f.Bytes())
	}

	// Readers start only now, after the bins are primed: the order of the
	// coordinator's queue operations is observable under virtual time.
	fr.Start()

	// Scatter procs (steps 5-7): the bin-scatter sink.
	scatterWG := ctx.NewWaitGroup()
	scatterWG.Add(cfg.ScatterProcs)
	scatStats := make([]Stats, cfg.ScatterProcs)
	for i := 0; i < cfg.ScatterProcs; i++ {
		id := i
		ctx.Go(procName(&scatterNames, "scatter", id), func(sp exec.Proc) {
			cfg.Tracer.AttachQuery(sp, trace.StageScatter, int32(id), cfg.TraceQuery())
			stager := bins.stagers[id]
			local := &scatStats[id]
			fr.Drain(sp, func(buf *pipeline.Buffer) {
				sg := sources[buf.Src]
				for pg := 0; pg < buf.NumPages; pg++ {
					logical := sg.Arr.Logical(buf.Dev, buf.Start+int64(pg))
					pageData := buf.Data[pg*ssd.PageSize : (pg+1)*ssd.PageSize]
					scanPage[V](sp, sg, f, logical, pageData, stager, scatter, cond, cfg, local)
				}
				local.PagesRead += int64(buf.NumPages)
			})
			if !fr.Failed() {
				stager.FlushAll(sp)
			}
			scatterWG.Done(sp)
		})
	}

	// Gather procs (steps 8-9) with per-proc output frontiers: bitmaps
	// kept with the round, which goes back to the pool once they are merged.
	gatherWG := ctx.NewWaitGroup()
	gatherWG.Add(cfg.GatherProcs)
	var outFronts []*frontier.VertexSubset
	if output {
		outFronts = rd.gatherFrontiers(c.V, cfg.GatherProcs)
	}
	for i := 0; i < cfg.GatherProcs; i++ {
		id := i
		ctx.Go(procName(&gatherNames, "gather", id), func(gp exec.Proc) {
			gtr := cfg.Tracer.AttachQuery(gp, trace.StageGather, int32(id), cfg.TraceQuery())
			var out *frontier.VertexSubset
			if output {
				out = outFronts[id]
			}
			updCost := m.Update(m.GatherUpdate, g.Locality)
			// Full bins drain in batches under one lock acquisition (one
			// per call under virtual time); each buffer still returns to
			// its bin right after processing so the pair protocol reclaims
			// spares promptly.
			var batch [pipeline.ClaimBatch]*bin.Buffer[V]
			for {
				n := bm.Full.PopBatch(gp, batch[:])
				if n == 0 {
					break
				}
				for _, bb := range batch[:n] {
					// On failure the records are dropped unapplied, but the
					// buffer still returns to its bin so scatter procs
					// blocked in a flush wake and the drain completes.
					if !fr.Failed() {
						var from int64
						if gtr.Active() {
							from = gp.Now()
						}
						gp.Advance(m.BinDrain + int64(len(bb.Records))*updCost)
						for _, r := range bb.Records {
							if gather(r.Dst, r.Val) && output {
								out.Add(r.Dst)
							}
						}
						if gtr.Active() {
							gtr.Span(trace.OpGatherBin, int32(bb.BinID), from, gp.Now(), int64(len(bb.Records)))
						}
					}
					bm.Return(gp, bb)
				}
			}
			gatherWG.Done(gp)
		})
	}

	// Coordinate shutdown: scatters finish -> publish partial bins ->
	// close the full stream -> gathers finish -> merge output frontiers.
	// On failure the partial bins are dropped (their records come from an
	// incomplete scan), but the drain order is unchanged so every proc
	// joins and every buffer parks before the error is returned.
	scatterWG.Wait(p)
	if !fr.Failed() {
		bm.FlushPartials(p)
	}
	bm.CloseFull()
	gatherWG.Wait(p)

	// The pipeline has quiesced: every IO buffer is back in the free queue
	// and every bin buffer is parked in its slot. Read the bins' count, then
	// stock the pool with the bins, only when they are clean: once stocked,
	// another taker may reopen them and zero the count. Then empty and close
	// the front half. The round goes back to the pool only on return, after
	// the merge and the last phase span: a round in the pool is the next
	// taker's, whose Reopen rewrites its Front's trace ring and clock.
	for _, s := range scatStats {
		st.PagesRead += s.PagesRead
		st.EdgesScanned += s.EdgesScanned
	}
	st.Records = bm.Records()
	if pool != nil {
		fr.Recover(p)
		if !fr.Failed() {
			closeBins(pool, bins)
		}
	}
	rd.fr = fr
	defer pool.putRound(rd)
	err = fr.Close(p)

	if err != nil || !output {
		return nil, st, err
	}
	merged := frontier.UnionFrom(pool.takeSpare(c.V), c.V, outFronts)
	p.Advance(m.VertexOp * merged.Count() / int64(computeProcs))
	fr.EndMerge(p)
	st.VerticesMoved = merged.Count()
	return merged, st, nil
}

// scanPage applies the scatter step to one fetched page, binning a record
// per edge that passes cond.
func scanPage[V any](sp exec.Proc, g *Graph, f *frontier.VertexSubset, logical int64,
	pageData []byte, stager *bin.Stager[V],
	scatter func(s, d uint32) V, cond func(d uint32) bool,
	cfg Config, st *Stats) {

	var produced int64
	vertices, edges := ForEachActiveEdge(g.CSR, f, logical, pageData, func(s, d uint32) {
		if cond(d) {
			stager.Emit(sp, d, scatter(s, d))
			produced++
		}
	})
	st.EdgesScanned += edges
	sp.Advance(cfg.Model.PageOverhead +
		cfg.Model.VertexOp*vertices +
		cfg.Model.EdgeScan*edges +
		cfg.Model.RecordAppend*produced)
}

// VertexMap applies fn to every vertex in f and returns the subset of
// vertices for which fn returned true (§IV-B), built in a frontier handed
// back to cfg.Pool when it holds one. It executes in memory; the modeled
// cost assumes all compute procs participate.
func VertexMap(p exec.Proc, f *frontier.VertexSubset, fn func(v uint32) bool, cfg Config) *frontier.VertexSubset {
	return mapVertices(cfg.Pool.takeSpare(f.N()), p, f, fn, cfg.Model.VertexOp, cfg.ScatterProcs+cfg.GatherProcs)
}

// MapVertices is the one vertex-map body of every engine that keeps vertex
// data on one machine: it applies fn to every vertex in f, returns the
// sealed subset for which fn returned true, and charges vertexOp per
// frontier vertex split evenly over procs (at least one). The output's list
// is allocated once, for f's count (it can hold no more) up to the density
// threshold. A dense f with a small output pays for a list it does not
// fill, yet PageRank-delta's maps over dense frontiers allocate less this
// way than by growing the list as it fills.
func MapVertices(p exec.Proc, f *frontier.VertexSubset, fn func(v uint32) bool, vertexOp int64, procs int) *frontier.VertexSubset {
	return mapVertices(nil, p, f, fn, vertexOp, procs)
}

// mapVertices is MapVertices building its output in spare (nil allocates).
func mapVertices(spare *frontier.VertexSubset, p exec.Proc, f *frontier.VertexSubset, fn func(v uint32) bool, vertexOp int64, procs int) *frontier.VertexSubset {
	f.Seal()
	out := frontier.NewSizedFrom(spare, f.N(), f.Count())
	f.ForEach(func(v uint32) {
		if fn(v) {
			out.Add(v)
		}
	})
	p.Advance(vertexOp * f.Count() / int64(max(procs, 1)))
	out.Seal()
	return out
}

// approxValBytes estimates sizeof(V) for bin sizing without unsafe: it
// relies on the engine's value types being at most 8 bytes (uint32, int32,
// float32, float64, uint64 are what the algorithms use).
func approxValBytes[V any]() int {
	var v V
	switch any(v).(type) {
	case uint8, int8, bool:
		return 1
	case uint16, int16:
		return 2
	case uint32, int32, float32:
		return 4
	default:
		return 8
	}
}
