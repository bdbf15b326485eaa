package pipeline

import (
	"fmt"
	"slices"

	"blaze/internal/costmodel"
	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/graph"
	"blaze/internal/iosched"
	"blaze/internal/metrics"
	"blaze/internal/pagecache"
	"blaze/internal/ssd"
	"blaze/internal/trace"
)

// Source is one graph a Front reads: an index and the striped device array
// holding its adjacency. Name is the graph's page-cache key space (interned
// by name, so the cache never pins the index against GC, a reloaded graph
// hits its previous incarnation's entries, and each delta segment gets its
// own key space) and is what a failed read is attributed to. A source
// whose CSR holds no in-memory adjacency is file-backed: its readers check
// every page they read for destinations outside the vertex space and fail
// the round, naming the page and the destination, on the first one.
type Source struct {
	Name string
	CSR  *graph.CSR
	Arr  *ssd.Array
}

// Spec is what varies between the striped-array engines' front halves.
type Spec struct {
	// Sources are read in order: the base graph, then its sealed delta
	// segments. All must span the same vertex space and stripe over the
	// same number of devices.
	Sources []Source
	// Model prices the page-frontier conversion (VertexOp per active
	// vertex, spread over Procs compute procs), request submission
	// (IOSubmit) and cache hits (half a PageOverhead per served page).
	Model costmodel.Model
	Procs int
	// MergePages caps device-contiguous page merging per request and
	// sizes the buffers; BufferBytes is the IO-buffer budget.
	MergePages  int
	BufferBytes int64
	// Cache, when enabled, sits in front of every device: admissions are
	// charged to CacheOwner, and QueryCache (optional) receives the pages
	// served, missed and quota-rejected. ProbeSyncs makes the probe itself
	// synchronise before touching the cache, as FlashGraph's §III-A model
	// does on every access including misses; fills always synchronise.
	Cache      *pagecache.Cache
	CacheOwner int32
	QueryCache *metrics.CacheCounters
	ProbeSyncs bool
	// Scheds, when non-nil, routes reads of devices in the table through
	// their shared scheduler (session mode); devices outside it — a
	// graph's private segment arrays — are read directly.
	Scheds *iosched.Table
	// Tracer and Query tag the coordinator's and readers' trace rings.
	Tracer *trace.Tracer
	Query  int32
	// ProcName prefixes the reader procs: device d of the base source runs
	// as "<ProcName><d>", of segment k as "<ProcName><d>.s<k>", and the
	// closer as "<ProcName>-closer".
	ProcName string
}

// Front is an open storage front half: stocked buffer queues and one
// reader per source and device, feeding whatever sinks the engine runs.
// The coordinating proc calls Open, Start, (spawns its sinks, each calling
// Drain, and waits for them), Recover when it will Reopen the Front, then
// Close.
type Front struct {
	ctx          exec.Context
	name         string
	tracer       *trace.Tracer
	free, filled exec.Queue[*Buffer]
	latch        exec.Latch
	readers      []Reader
	count        int
	bufLen       int
	// bufs holds every IO buffer fr owns, each bufLen bytes: a round
	// stocks its free queue with the first count of them.
	bufs []*Buffer
	// pages holds one page frontier per source; the readers' page lists
	// are its per-device lists.
	pages []frontier.PageSubset

	// What a round's procs are spawned from, built once and kept, so a
	// reopened Front spawns them without allocating: the readers' wait
	// group (the closer waits on it; made again under another context),
	// each reader proc's body and the closer's (they read the current
	// round's fields: a body touches nothing after its Done, the closer
	// nothing after Close), the reader and closer names (formatted again
	// only when ProcName, the device count or the source count changes),
	// the model the readers price requests by, and each source's cache
	// view and page check.
	wg         exec.WaitGroup
	runs       []func(exec.Proc)
	closer     func(exec.Proc)
	names      []string
	closerName string
	namesDev   int
	model      costmodel.Model
	srcs       []sourceState

	// Phase spans on the coordinator's clock: source → pipeline → merge,
	// back to back, so the trace summary's phase totals reconstruct the
	// makespan exactly (what Summary.PhaseCoverage checks).
	ctr *trace.Ring
	t0  int64
}

// sourceState is what a Front keeps per source for its readers: the page
// cache in front of the source's devices and the check of a file-backed
// source's pages.
type sourceState struct {
	cache cacheView
	check pageCheck
}

// Open converts the vertex frontier f into one per-device page frontier
// per source (charging the modeled conversion cost on p), sizes and stocks
// the buffer queues, and builds the readers. It returns a nil Front and a
// nil error when f touches no page: there is nothing to read and nothing
// to close.
func Open(ctx exec.Context, p exec.Proc, f *frontier.VertexSubset, s Spec) (*Front, error) {
	return Reopen(nil, ctx, p, f, s)
}

// Reopen is Open building into fr, a Front an earlier Open or Reopen
// returned and Recover and Close then emptied and closed, once every proc
// of that round has returned: its queue pair is reopened
// (exec.Queue.Reopen), its page lists and readers are written over, and
// its free queue is stocked with its own IO buffers, only the shortfall
// allocated. Buffers of another length (MergePages changed) are dropped.
// Queues and wait groups belong to a context and buffers do not: a Front
// closed under another context gets a new queue pair and keeps its
// buffers. What its procs are spawned from is kept too. A nil fr
// starts empty. The modeled charges, queue operations and procs are Open's,
// so virtual time cannot tell the two apart. The caller keeps fr when
// Reopen returns nil.
func Reopen(fr *Front, ctx exec.Context, p exec.Proc, f *frontier.VertexSubset, s Spec) (*Front, error) {
	if fr == nil {
		fr = new(Front)
	}
	if fr.ctx != ctx {
		fr.ctx, fr.free, fr.filled, fr.wg = ctx, nil, nil, nil
	}
	fr.tracer, fr.latch = s.Tracer, exec.Latch{}
	fr.ctr = s.Tracer.AttachQuery(p, trace.StageCoord, -1, s.Query)
	if fr.ctr.Active() {
		fr.t0 = p.Now()
	}
	base := s.Sources[0]
	numDev := base.Arr.NumDevices()
	for _, src := range s.Sources[1:] {
		if src.CSR.V != base.CSR.V {
			return nil, fmt.Errorf("pipeline: segment %q has %d vertices, base %q has %d",
				src.Name, src.CSR.V, base.Name, base.CSR.V)
		}
	}
	f.Seal()
	if len(fr.pages) < len(s.Sources) {
		fr.pages = append(fr.pages, make([]frontier.PageSubset, len(s.Sources)-len(fr.pages))...)
	}
	var pages int64
	for k, src := range s.Sources {
		fr.pages[k].Fill(f, src.CSR, numDev)
		p.Advance(s.Model.VertexOp * f.Count() / int64(s.Procs))
		pages += fr.pages[k].Pages()
	}
	fr.phase(p, trace.PhaseSource)
	if pages == 0 {
		return nil, nil
	}

	// The buffer floor scales with the reader count (one reader per
	// source × device).
	numReaders := numDev * len(s.Sources)
	if bufLen := s.MergePages * ssd.PageSize; bufLen != fr.bufLen {
		fr.bufs, fr.bufLen = nil, bufLen
	}
	fr.count = BufferCount(s.BufferBytes, fr.bufLen, numReaders, pages)
	if fr.free == nil {
		fr.free, fr.filled = NewQueues(ctx, fr.count)
	} else {
		fr.free.Reopen(fr.count)
		fr.filled.Reopen(fr.count)
	}
	if short := fr.count - len(fr.bufs); short > 0 {
		fr.bufs = slices.Grow(fr.bufs, short)
		for range short {
			fr.bufs = append(fr.bufs, &Buffer{Data: make([]byte, fr.bufLen)})
		}
	}
	fr.free.PushN(p, fr.bufs[:fr.count])

	fr.model = s.Model
	fr.nameReaders(s.ProcName, numDev, len(s.Sources))
	if len(fr.srcs) < len(s.Sources) {
		fr.srcs = make([]sourceState, len(s.Sources))
	}
	fr.readers = slices.Grow(fr.readers[:0], numReaders)
	for k, src := range s.Sources {
		ss := &fr.srcs[k]
		var cv *cacheView
		if s.Cache.Enabled() {
			ss.cache = cacheView{
				cache:      s.Cache,
				gid:        s.Cache.GraphID(src.Name),
				arr:        src.Arr,
				stride:     int64(numDev),
				owner:      s.CacheOwner,
				counters:   s.QueryCache,
				probeSyncs: s.ProbeSyncs,
				hitCost:    s.Model.PageOverhead / 2,
			}
			cv = &ss.cache
		}
		var check *pageCheck
		if src.CSR.Adj == nil {
			ss.check = pageCheck{csr: src.CSR, arr: src.Arr}
			check = &ss.check
		}
		for d := 0; d < numDev; d++ {
			dev := src.Arr.Device(d)
			fr.readers = append(fr.readers, Reader{
				Name:   fr.names[len(fr.readers)],
				Device: dev,
				Dev:    d,
				Src:    k,
				Sched:  s.Scheds.For(dev),
				Query:  s.Query,
				Pages:  fr.pages[k].PerDev[d],
				Free:   fr.free,
				Filled: fr.filled,
				Latch:  &fr.latch,
				Merge:  Merge{MaxPages: s.MergePages},
				Model:  &fr.model,
				Source: src.Name,
				cache:  cv,
				check:  check,
			})
		}
	}
	return fr, nil
}

// nameReaders formats the reader and closer proc names for procName over
// numDev devices and numSrc sources, unless fr already holds them.
func (fr *Front) nameReaders(procName string, numDev, numSrc int) {
	if fr.names != nil && fr.name == procName && fr.namesDev == numDev && len(fr.names) == numDev*numSrc {
		return
	}
	fr.name, fr.namesDev, fr.closerName = procName, numDev, procName+"-closer"
	fr.names = fr.names[:0]
	for k := range numSrc {
		for d := range numDev {
			name := fmt.Sprintf("%s%d", procName, d)
			if k > 0 {
				name = fmt.Sprintf("%s%d.s%d", procName, d, k-1)
			}
			fr.names = append(fr.names, name)
		}
	}
}

// phase closes the coordinator's current phase span at p's clock and
// starts the next one there.
func (fr *Front) phase(p exec.Proc, ph trace.Phase) {
	if fr.ctr.Active() {
		t1 := p.Now()
		fr.ctr.Span(trace.OpPhase, -1, fr.t0, t1, int64(ph))
		fr.t0 = t1
	}
}

// BufferBytes returns the IO-buffer memory this round holds.
func (fr *Front) BufferBytes() int64 { return int64(fr.count) * int64(fr.bufLen) }

// Start spawns one proc per reader, in order (so virtual-time scheduling
// is reproducible), and a closer proc that ends the filled stream once
// every reader has finished, releasing sinks blocked on an empty queue.
// The procs run on bodies and a wait group fr keeps from round to round.
func (fr *Front) Start() {
	if fr.wg == nil {
		fr.wg = fr.ctx.NewWaitGroup()
	}
	for i := len(fr.runs); i < len(fr.readers); i++ {
		fr.runs = append(fr.runs, func(io exec.Proc) {
			r := &fr.readers[i]
			fr.tracer.AttachQuery(io, trace.StageIO, int32(r.Dev), r.Query)
			r.Run(io)
			fr.wg.Done(io)
		})
	}
	if fr.closer == nil {
		fr.closer = func(cp exec.Proc) {
			fr.wg.Wait(cp)
			fr.filled.Close()
		}
	}
	fr.wg.Add(len(fr.readers))
	for i := range fr.readers {
		fr.ctx.Go(fr.readers[i].Name, fr.runs[i])
	}
	fr.ctx.Go(fr.closerName, fr.closer)
}

// Drain runs the sink loop on a compute proc, moving buffers through
// batch: process sees every filled buffer until the stream ends, and none
// after a failure (see Drain).
func (fr *Front) Drain(p exec.Proc, batch *[ClaimBatch]*Buffer, process func(buf *Buffer)) {
	Drain(p, fr.free, fr.filled, &fr.latch, batch, process)
}

// Failed reports whether a reader has latched an unrecoverable error;
// sinks use it to skip work whose input is incomplete.
func (fr *Front) Failed() bool { return fr.latch.Failed() }

// Recover empties the free queue, which a later Reopen of fr needs
// drained, and returns how many buffers it popped: all of the round's count
// when every buffer came back. Call it only once every sink has returned:
// the pipeline has quiesced and every buffer is back in the free queue. The
// buffers stay fr's.
func (fr *Front) Recover(p exec.Proc) int {
	n := 0
	for {
		if _, ok := fr.free.TryPop(p); !ok {
			return n
		}
		n++
	}
}

// Close shuts both buffer queues — on every exit path; the closer proc
// already closed filled on the clean one, and Close is idempotent — ends
// the pipeline phase span, and returns the latched error, if any. Call it
// once every sink has returned.
func (fr *Front) Close(p exec.Proc) error {
	fr.free.Close()
	fr.filled.Close()
	fr.phase(p, trace.PhasePipeline)
	return fr.latch.Err()
}

// EndMerge ends the merge phase span: whatever the engine did on the
// coordinating proc between Close and here.
func (fr *Front) EndMerge(p exec.Proc) { fr.phase(p, trace.PhaseMerge) }

// cacheView is a page cache in front of one source's devices. Keys are
// (graph ID, logical page); the logical-page stride between device-adjacent
// pages of a striped array is the device count.
type cacheView struct {
	cache      *pagecache.Cache
	gid        pagecache.ID
	arr        *ssd.Array
	stride     int64
	owner      int32
	counters   *metrics.CacheCounters
	probeSyncs bool
	// hitCost is the model time charged per page served from the cache.
	hitCost int64
}

// probe checks the merged run of n pages starting at buf.Start against the
// cache before the device request is formed. It copies whatever it can
// serve into buf.Data and returns the served leading (prefix) and trailing
// (suffix) page counts, never more than n in total: the reader trims the
// device read to the uncached middle span [prefix, n-suffix), or skips it
// when the whole run was served.
func (cv *cacheView) probe(io exec.Proc, buf *Buffer, n int) (prefix, suffix int) {
	base := cv.arr.Logical(buf.Dev, buf.Start)
	if cv.probeSyncs {
		io.Sync()
	}
	prefix, suffix = cv.cache.ProbeRun(cv.gid, base, cv.stride, n, buf.Data)
	if cv.counters != nil {
		served := int64(prefix + suffix)
		cv.counters.Add(served, int64(n)-served)
	}
	return prefix, suffix
}

// fill inserts the device-read pages [lo, hi) of a successfully read
// buffer before it is handed downstream; cache-served pages outside that
// range are already resident. Key construction is pure, so the
// striped-array math stays ahead of the Sync and the synchronised window
// covers only the inserts.
func (cv *cacheView) fill(io exec.Proc, buf *Buffer, lo, hi int) {
	base := cv.arr.Logical(buf.Dev, buf.Start)
	tr := trace.RingOf(io)
	io.Sync()
	for pg := lo; pg < hi; pg++ {
		res := cv.cache.PutOwned(pagecache.Key{Graph: cv.gid, Logical: base + int64(pg)*cv.stride},
			buf.Data[pg*ssd.PageSize:(pg+1)*ssd.PageSize], cv.owner)
		if res&pagecache.PutQuotaRejected != 0 && cv.counters != nil {
			cv.counters.AddQuotaRejected(1)
		}
		if tr.Active() {
			if res&pagecache.PutEvicted != 0 {
				tr.Instant(trace.OpCacheEvict, int32(buf.Dev), io.Now(), 1)
			}
			if res&pagecache.PutGhostHit != 0 {
				tr.Instant(trace.OpCacheGhostHit, int32(buf.Dev), io.Now(), 1)
			}
		}
	}
}
