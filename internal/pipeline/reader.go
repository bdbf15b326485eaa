package pipeline

import (
	"encoding/binary"
	"fmt"

	"blaze/internal/costmodel"
	"blaze/internal/exec"
	"blaze/internal/graph"
	"blaze/internal/iosched"
	"blaze/internal/ssd"
	"blaze/internal/trace"
)

// Merge is a reader's request-coalescing rule (§IV-C, §III): a request
// starts at an active page and takes in the next active pages of the sorted
// list while the request stays within MaxPages pages, no gap of inactive
// pages it would read through is wider than GapPages, and — when PartPages
// is set — it stays inside one partition of PartPages pages. Blaze merges
// device-contiguous runs of up to four pages (GapPages 0); Graphene's large
// IOs also read inactive gap pages inside a partition, and the pages a
// request covers include those gaps (the amplification the paper
// measures). A request always covers at least its first page.
type Merge struct {
	MaxPages  int
	GapPages  int
	PartPages int64
}

// next returns the number of pages the request starting at pages[i]
// covers, in the device's address space, and the position in pages after
// the last active page it takes in. It is pure computation: it is called
// outside any model-time charge.
func (m Merge) next(pages []int64, i int) (numPages, next int) {
	start := pages[i]
	end := start // inclusive last page
	j := i + 1
	for ; j < len(pages); j++ {
		p := pages[j]
		if p-end-1 > int64(m.GapPages) || p-start+1 > int64(m.MaxPages) ||
			(m.PartPages > 0 && p/m.PartPages != start/m.PartPages) {
			break
		}
		end = p
	}
	return int(end - start + 1), j
}

// Reader is one per-device IO stage: it walks its page list, claims free
// buffers, coalesces requests by its Merge rule, probes the page cache when
// one sits in front of the device, schedules retry-aware asynchronous
// reads, and hands filled buffers downstream stamped with their completion
// time.
// On the first unrecoverable device error it latches the failure, recycles
// its claimed buffers, and stops issuing IO; it also degrades to a clean
// stop whenever another stage has latched first.
type Reader struct {
	// Name is the proc debug name (e.g. "io0").
	Name string
	// Device serves the reads; Dev is the value stamped into Buffer.Dev.
	Device *ssd.Device
	Dev    int
	// Src is stamped into Buffer.Src: the index of the graph source this
	// reader serves in a multi-source (base + delta segments) pipeline.
	// Single-source engines leave it 0.
	Src int
	// Sched, when non-nil, is the shared-scheduler mode (session
	// execution): reads route through the per-device iosched.Scheduler —
	// which coalesces them onto other queries' in-flight reads and paces
	// over-share queries — instead of going to Device directly. Device
	// must still be set (it is the scheduler's device).
	Sched *iosched.Scheduler
	// Query identifies the owning query in session mode and tags the
	// reader's scheduler requests and trace ring. Engines must set it to
	// -1 outside session mode.
	Query int32
	// Pages is this device's sorted page frontier, in the device's own
	// address space.
	Pages []int64
	// Free and Filled are the buffer queues shared with the sinks. Free
	// buffers are claimed up to ClaimBatch at a time; leftovers are
	// returned when the page list runs out or the pipeline fails.
	Free, Filled exec.Queue[*Buffer]
	// Latch is the pipeline's shared failure latch.
	Latch *exec.Latch
	// Merge is the request-coalescing rule.
	Merge Merge
	// Model prices submitting each request (IOSubmit).
	Model *costmodel.Model
	// Source names the graph source the reader serves: an unrecoverable
	// read error is reported as reading it.
	Source string

	// batch holds the free buffers Run has claimed and not used yet: it is
	// the reader's, so a kept reader claims without allocating.
	batch [ClaimBatch]*Buffer
	// cache, when non-nil, is the page cache in front of Device (set by
	// Open; see cacheView for the probe/fill contract).
	cache *cacheView
	// check, when non-nil, validates every page read from Device before it
	// is cached or handed on (set by Open for file-backed sources).
	check *pageCheck
}

// Run executes the reader loop on the given proc. It returns when the page
// list is exhausted, the free queue closes, the latch trips, or the device
// fails unrecoverably; claimed-but-unused buffers are always recycled.
func (r *Reader) Run(io exec.Proc) {
	pages := r.Pages
	tr := trace.RingOf(io)
	batch := &r.batch
	bn, bi := 0, 0
	i := 0
	for i < len(pages) && !r.Latch.Failed() {
		var waitFrom int64
		if tr.Active() {
			waitFrom = io.Now()
		}
		if bi == bn {
			bn = r.Free.PopBatch(io, batch[:])
			bi = 0
			// The pop may have blocked while another proc failed; recheck
			// before issuing more IO.
			if bn == 0 || r.Latch.Failed() {
				break
			}
		}
		buf := batch[bi]
		bi++
		if tr.Active() {
			// The span covers the free-buffer claim: non-zero duration means
			// the device outran the sinks and IO stalled for buffers.
			tr.Span(trace.OpIOWait, int32(r.Dev), waitFrom, io.Now(), int64(r.Free.Len()))
		}
		buf.Dev = r.Dev
		buf.Src = r.Src
		buf.Start = pages[i]
		n, next := r.Merge.next(pages, i)
		buf.NumPages = n
		// Page-cache probe over the whole merged run: a full hit serves
		// every page from memory with no device time; a partial hit trims
		// the cached prefix/suffix off the device request.
		lo, hi := 0, n
		if r.cache != nil {
			prefix, suffix := r.cache.probe(io, buf, n)
			lo, hi = prefix, n-suffix
			if served := prefix + suffix; served > 0 {
				io.Advance(r.cache.hitCost * int64(served))
				if tr.Active() {
					tr.Instant(trace.OpCacheHit, int32(r.Dev), io.Now(), int64(served))
				}
				if served >= n {
					r.Filled.Push(io, buf)
					i = next
					continue
				}
			}
		}
		io.Advance(r.Model.IOSubmit(hi - lo))
		var done int64
		var err error
		if r.Sched != nil {
			done, err = r.Sched.ScheduleRead(io, r.Query, pages[i]+int64(lo), hi-lo,
				buf.Data[lo*ssd.PageSize:hi*ssd.PageSize])
		} else {
			done, err = r.Device.ScheduleRead(io, pages[i]+int64(lo), hi-lo,
				buf.Data[lo*ssd.PageSize:hi*ssd.PageSize])
		}
		if err == nil && r.check != nil {
			err = r.check.pages(buf, lo, hi)
		}
		if err != nil {
			// Unrecoverable read (retries exhausted or permanent) or a
			// corrupt page: latch the failure, hand the buffer back, and
			// stop this device's stream.
			r.Latch.Fail(fmt.Errorf("pipeline: reading %q: %w", r.Source, err))
			bi--
			break
		}
		if r.cache != nil {
			r.cache.fill(io, buf, lo, hi)
		}
		r.Filled.PushAt(io, buf, done)
		if tr.Active() {
			tr.Counter(trace.OpFilledLen, int32(r.Dev), io.Now(), int64(r.Filled.Len()))
		}
		i = next
	}
	if bi < bn {
		r.Free.PushN(io, batch[bi:bn])
	}
}

// pageCheck validates the pages of a file-backed source as its reader hands
// them on: every destination must name one of the graph's vertices. An
// in-memory adjacency is checked once by graph.Build; a file's adjacency
// stays on disk, and checking each page as it arrives costs neither a pass
// over the whole file at load nor a branch per edge in the engines' scans.
type pageCheck struct {
	csr *graph.CSR
	arr *ssd.Array
}

// pages checks pages [lo, hi) of buf: the edge slots of each page, up to
// the graph's last edge, are screened without a branch per edge, and only a
// page that fails the screen is searched for the edge to report.
func (pc *pageCheck) pages(buf *Buffer, lo, hi int) error {
	for pg := lo; pg < hi; pg++ {
		logical := pc.arr.Logical(buf.Dev, buf.Start+int64(pg))
		first := logical * graph.EdgesPerPage
		n := min(graph.EdgesPerPage, pc.csr.E-first)
		if n <= 0 {
			continue
		}
		data := buf.Data[pg*ssd.PageSize:][:n*graph.EdgeBytes]
		if allBelow(data, pc.csr.V) {
			continue
		}
		for i := int64(0); i < n; i++ {
			if d := graph.DecodeEdge(data, int(i)*graph.EdgeBytes); d >= pc.csr.V {
				return fmt.Errorf("logical page %d, edge %d: destination %d out of range [0, %d)",
					logical, first+i, d, pc.csr.V)
			}
		}
	}
	return nil
}

// allBelow reports whether every little-endian uint32 in data is below v,
// with no branch per lane: a lane x plus 2^32-v carries into bit 32 exactly
// when x >= v, so ORing the sums collects every lane out of range. Four
// lanes per step keep the bounds checks out of the loop.
func allBelow(data []byte, v uint32) bool {
	c := 1<<32 - uint64(v)
	var acc uint64
	i := 0
	for ; i+16 <= len(data); i += 16 {
		w := data[i : i+16 : i+16]
		acc |= (uint64(binary.LittleEndian.Uint32(w[0:])) + c) |
			(uint64(binary.LittleEndian.Uint32(w[4:])) + c) |
			(uint64(binary.LittleEndian.Uint32(w[8:])) + c) |
			(uint64(binary.LittleEndian.Uint32(w[12:])) + c)
	}
	for ; i+4 <= len(data); i += 4 {
		acc |= uint64(binary.LittleEndian.Uint32(data[i:])) + c
	}
	return acc>>32 == 0
}
