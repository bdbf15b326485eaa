// Package costmodel defines the virtual-time CPU costs charged by the
// engines when they run under the simulation backend (internal/exec.Sim).
//
// The costs are per-operation nanoseconds on a ~2 GHz server core and were
// chosen from microbenchmarks of the real Go implementations in this
// repository plus the published behaviour the paper relies on:
//
//   - Sequential, cache-friendly work (scanning packed edges, appending to
//     a staging buffer) costs a few nanoseconds per element.
//   - A scattered update into a vertex array much larger than the LLC
//     costs tens of nanoseconds — effectively DRAM latency divided by the
//     achievable memory-level parallelism. This is the cost that message
//     processing (FlashGraph), inline atomic updates (Graphene, Blaze-sync)
//     and bin gathering all pay; the systems differ in *when* (overlapped
//     with IO or serialized after it), *how balanced*, and whether they add
//     atomic-operation and contention penalties on top.
//   - Contended atomic updates to hot cache lines (power-law high-degree
//     vertices) cost hundreds of nanoseconds due to cache-line ping-pong;
//     the per-graph fraction of such updates is computed from the real
//     in-degree distribution (see HotEdgeFraction in internal/graph).
//
// The rules that combine these costs live here as methods, once: Update
// applies the locality discount to a scattered update, AtomicUpdate prices
// an inline atomic update (discounted update, CAS, and hot-line contention
// when procs run concurrently), IOSubmit prices an IO submission. An
// engine names the base cost it pays and its proc count; it never
// re-derives a rule, so two engines that differ only in their sink are
// priced by the same arithmetic.
//
// Every experiment prints the model it used, so figures are reproducible
// and the model is auditable. All costs are overridable.
package costmodel

// Model holds per-operation virtual-time costs in nanoseconds.
type Model struct {
	// EdgeScan is the cost per edge scanned during scatter: reading the
	// packed destination ID, evaluating cond, and calling the scatter
	// function.
	EdgeScan int64
	// RecordAppend is the cost per (dst, value) record appended to a bin
	// through the per-proc staging buffer, amortized over batched flushes.
	RecordAppend int64
	// GatherUpdate is the cost per record drained by a gather proc:
	// reading the record and applying the user gather function to the
	// vertex array (a scattered memory update).
	GatherUpdate int64
	// RandomUpdate is the cost of one scattered vertex-array update when
	// performed inline outside binning (Graphene-style engines), before
	// any atomic penalty.
	RandomUpdate int64
	// MsgProcess is the cost per message applied by a message-passing
	// engine's owner thread (FlashGraph): a RandomUpdate plus the message
	// queue read and per-vertex queue bookkeeping.
	MsgProcess int64
	// AtomicExtra is the additional cost of making an update atomic
	// (compare-and-swap) without contention.
	AtomicExtra int64
	// HotContention is the additional cost of an atomic update to a hot
	// cache line being ping-ponged between many cores. It is charged on
	// the fraction of updates that target top-in-degree vertices
	// (HotEdgeFraction) and only when two or more procs update
	// concurrently.
	HotContention int64
	// MsgEnqueue is the cost per message appended in the message-passing
	// baseline. FlashGraph assigns a message queue to each *vertex*
	// (§III-A), so an enqueue is a scattered write into a per-vertex
	// structure, far costlier than a sequential buffer append.
	MsgEnqueue int64
	// BinFlush is the per-flush cost of moving a staging buffer into its
	// bin (slot acquisition, batched memcpy setup).
	BinFlush int64
	// BinDrain is the per-buffer overhead a gather proc pays to pop,
	// set up, and return one full bin buffer.
	BinDrain int64
	// PageOverhead is the per-4 kB-page cost of buffer management and
	// page-to-vertex lookups on a computation proc.
	PageOverhead int64
	// IOSubmitBase and IOSubmitPerPage model asynchronous IO submission
	// CPU cost on the IO proc: base + perPage*pages. Graphene's large
	// merged IOs pay the per-page term many times, which is the
	// submission-time growth the paper cites from the Graphene paper.
	IOSubmitBase    int64
	IOSubmitPerPage int64
	// VertexOp is the cost per vertex visited in VertexMap and in
	// frontier construction/conversion.
	VertexOp int64
	// LocalityDiscount scales scattered-update costs on graphs with high
	// access locality (e.g. sk2005): effective cost =
	// cost * (1 - LocalityDiscount*graphLocality). The paper observes
	// that high-locality graphs hit processor caches and need fewer
	// compute threads to saturate IO (§V-D).
	LocalityDiscount float64
}

// Default returns the calibrated model used by the benchmark harness.
func Default() Model {
	return Model{
		EdgeScan:         2,
		RecordAppend:     2,
		GatherUpdate:     12,
		RandomUpdate:     18,
		MsgProcess:       25,
		AtomicExtra:      15,
		HotContention:    100,
		MsgEnqueue:       30,
		BinFlush:         40,
		BinDrain:         300,
		PageOverhead:     300,
		IOSubmitBase:     400,
		IOSubmitPerPage:  150,
		VertexOp:         3,
		LocalityDiscount: 0.85,
	}
}

// Update returns the cost of one scattered vertex update with the given
// graph locality in [0,1].
func (m Model) Update(base int64, locality float64) int64 {
	f := 1 - m.LocalityDiscount*locality
	if f < 0 {
		f = 0
	}
	return int64(float64(base) * f)
}

// AtomicUpdate returns the cost of one inline compare-and-swap update of
// base cost on a graph with the given locality, made by one of procs
// concurrent updaters: the discounted update plus AtomicExtra, plus — when
// two or more procs update concurrently — HotContention on the hotFrac
// share of updates that hit a hot cache line. It is the one price of an
// inline atomic update; every engine that updates without binning
// (blaze-sync, graphene, the in-core engine) charges it.
func (m Model) AtomicUpdate(base int64, locality, hotFrac float64, procs int) int64 {
	c := m.Update(base, locality) + m.AtomicExtra
	if procs > 1 {
		c += int64(hotFrac * float64(m.HotContention))
	}
	return c
}

// IOSubmit returns the submission cost for a request of n pages.
func (m Model) IOSubmit(pages int) int64 {
	return m.IOSubmitBase + m.IOSubmitPerPage*int64(pages)
}
