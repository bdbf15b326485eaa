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
	pool := cfg.pool()

	// Steps 1-4: vertex frontier -> per-device page frontiers -> stocked IO
	// buffers and one reader per source and device. A graph with sealed
	// delta segments (Graph.Segs) iterates as [base, seg0, seg1, ...]; a
	// segment-free graph is the single-source seed path, operation for
	// operation.
	rd := takeRound[V](pool)
	defer putRound(pool, rd)
	rd.sources = append(append(rd.sources[:0], g), g.Segs...)
	cfg.fillSpec(&rd.spec, "io", rd.sources)
	fr, err := pipeline.Reopen(rd.fr, ctx, p, f, rd.spec)
	if fr == nil {
		if err != nil || !output {
			return nil, st, err
		}
		return frontier.Renew(pool.takeSpare(c.V), c.V), st, nil
	}
	rd.fr = fr
	if cfg.Mem != nil {
		cfg.Mem.Set("io-buffers", fr.BufferBytes())
	}

	// Online bins (steps 6, 8) and one stager per scatter proc, retained
	// from the round's previous call when they match.
	recordBytes := 4 + approxValBytes[V]()
	rd.openBins(ctx, p, bin.Config{
		BinCount:    cfg.BinCount,
		SpaceBytes:  cfg.BinSpaceBytes,
		RecordBytes: recordBytes,
		StageCap:    cfg.StageCap,
		FlushCostNs: m.BinFlush,
	}, cfg.ScatterProcs)
	bm := rd.bm
	if cfg.Mem != nil {
		cfg.Mem.Set("bin-space", bm.MemBytes(recordBytes))
		cfg.Mem.Set("frontier", f.Bytes())
	}

	// Readers start only now, after the bins are primed: the order of the
	// coordinator's queue operations is observable under virtual time.
	fr.Start()

	// The compute procs run on bodies the round keeps, over this call.
	rd.g, rd.f, rd.scatter, rd.gather, rd.cond, rd.output, rd.cfg = g, f, scatter, gather, cond, output, cfg
	rd.arm(ctx, cfg.ScatterProcs, cfg.GatherProcs)

	// Scatter procs (steps 5-7): the bin-scatter sink.
	rd.scatterWG.Add(cfg.ScatterProcs)
	for i := 0; i < cfg.ScatterProcs; i++ {
		ctx.Go(procName(&scatterNames, "scatter", i), rd.scatters[i])
	}

	// Gather procs (steps 8-9) with per-proc output frontiers: bitmaps
	// kept with the round, which goes back to the pool once they are merged.
	rd.gatherWG.Add(cfg.GatherProcs)
	var outFronts []*frontier.VertexSubset
	if output {
		outFronts = rd.gatherFrontiers(c.V, cfg.GatherProcs)
	}
	for i := 0; i < cfg.GatherProcs; i++ {
		ctx.Go(procName(&gatherNames, "gather", i), rd.gathers[i])
	}

	// Coordinate shutdown: scatters finish -> publish partial bins ->
	// close the full stream -> gathers finish -> merge output frontiers.
	// On failure the partial bins are dropped (their records come from an
	// incomplete scan), but the drain order is unchanged so every proc
	// joins and every buffer parks before the error is returned.
	rd.scatterWG.Wait(p)
	if !fr.Failed() {
		bm.FlushPartials(p)
	}
	bm.CloseFull()
	rd.gatherWG.Wait(p)

	// The pipeline has quiesced: every IO buffer is back in the free queue
	// and every bin buffer is parked in its slot. A failed round forgets its
	// Manager, whose stagers and active halves still hold records. Empty
	// and close the front half. The round goes back to the pool only on
	// return, after the merge and the last phase span: a round in the pool
	// is the next taker's, whose Reopen rewrites its Front's trace ring and
	// clock and whose bins zero the count read here.
	for _, s := range rd.scatStats[:cfg.ScatterProcs] {
		st.PagesRead += s.PagesRead
		st.EdgesScanned += s.EdgesScanned
	}
	st.Records = bm.Records()
	if fr.Failed() {
		rd.bm = nil
	}
	fr.Recover(p)
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

// scatterBody is the body of scatter proc id (steps 5-7), serving whatever
// call rd runs: it drains filled IO buffers, scans their pages through its
// stager into the bins, and flushes the stager unless the round failed.
func (rd *round[V]) scatterBody(id int) func(exec.Proc) {
	return func(sp exec.Proc) {
		rd.cfg.Tracer.AttachQuery(sp, trace.StageScatter, int32(id), rd.cfg.TraceQuery())
		stager := rd.stagers[id]
		local := &rd.scatStats[id]
		rd.fr.Drain(sp, &rd.drains[id], func(buf *pipeline.Buffer) {
			sg := rd.sources[buf.Src]
			for pg := 0; pg < buf.NumPages; pg++ {
				logical := sg.Arr.Logical(buf.Dev, buf.Start+int64(pg))
				pageData := buf.Data[pg*ssd.PageSize : (pg+1)*ssd.PageSize]
				scanPage[V](sp, sg, rd.f, logical, pageData, stager, rd.scatter, rd.cond, rd.cfg, local)
			}
			local.PagesRead += int64(buf.NumPages)
		})
		if !rd.fr.Failed() {
			stager.FlushAll(sp)
		}
		rd.scatterWG.Done(sp)
	}
}

// gatherBody is the body of gather proc id (steps 8-9), serving whatever
// call rd runs: it applies full bins' records and, for an output call,
// collects the activated vertices in the round's frontier id.
func (rd *round[V]) gatherBody(id int) func(exec.Proc) {
	return func(gp exec.Proc) {
		fr, bm, gather, output := rd.fr, rd.bm, rd.gather, rd.output
		gtr := rd.cfg.Tracer.AttachQuery(gp, trace.StageGather, int32(id), rd.cfg.TraceQuery())
		var out *frontier.VertexSubset
		if output {
			out = rd.outs[id]
		}
		m := &rd.cfg.Model
		updCost := m.Update(m.GatherUpdate, rd.g.Locality)
		// Full bins drain in batches under one lock acquisition (one per
		// call under virtual time); each buffer still returns to its bin
		// right after processing so the pair protocol reclaims spares
		// promptly.
		batch := &rd.batches[id]
		for {
			n := bm.Full.PopBatch(gp, batch[:])
			if n == 0 {
				break
			}
			for _, bb := range batch[:n] {
				// On failure the records are dropped unapplied, but the
				// buffer still returns to its bin so scatter procs blocked
				// in a flush wake and the drain completes.
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
		rd.gatherWG.Done(gp)
	}
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
// back to the config's pool when it holds one. It executes in memory; the
// modeled cost assumes all compute procs participate.
func VertexMap(p exec.Proc, f *frontier.VertexSubset, fn func(v uint32) bool, cfg Config) *frontier.VertexSubset {
	return mapVertices(cfg.pool().takeSpare(f.N()), p, f, fn, cfg.Model.VertexOp, cfg.ScatterProcs+cfg.GatherProcs)
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
