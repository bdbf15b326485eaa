// Package pipeline is the storage front half every out-of-core EdgeMap
// engine in this repository runs (§IV-C, Fig. 5):
//
//	vertex frontier → page frontier → per-device IO readers
//	    → free/filled buffer queues → compute sinks
//
// The engines differ only in how their compute sinks consume filled
// buffers: bin scatter/gather (blaze), inline-atomic apply (blaze-sync),
// owner-queue messages (flashgraph), paired per-partition compute
// (graphene). Everything before the sink lives here, once:
//
//   - Open builds the front half for the striped-array engines (blaze,
//     blaze-sync, flashgraph) from a Spec: one page-frontier conversion
//     per graph source, buffer sizing and stocking, the per-device
//     readers with the page cache and the shared IO scheduler in front of
//     the device, and the failure latch. The returned Front starts the
//     readers, runs the sink loop, and closes the pipeline; an engine
//     contributes the function that processes one filled buffer.
//   - Reader is the per-device IO proc loop (retry-aware ScheduleRead,
//     failure-latch drain-and-recycle) and Drain the sink loop that
//     recycles every buffer even after a failure. A Reader's policies are
//     plain data: one Merge rule whose settings give Blaze's contiguous
//     runs and Graphene's gap-and-partition windows, the cost Model that
//     prices each request, and the Source a read error names. Graphene,
//     whose topology is one private queue pair per IO/compute pair, builds
//     its Readers from these directly.
//   - MergeFrontiers folds the sinks' per-proc output frontiers.
//
// Virtual-time discipline: proc spawn order, proc names and the order of
// model-time charges are observable under exec.Sim, so they are part of
// this package's contract — the calibrated figures (results/*.csv) are
// byte-identical across any change here. Queue transfers always use the
// batch calls (ClaimBatch); the virtual-time queues move one item per
// batched call by construction, so batching cannot move a figure.
package pipeline

import (
	"blaze/internal/exec"
	"blaze/internal/frontier"
)

// Buffer is one IO buffer: up to a reader's merge cap of device-contiguous
// pages read from a single device. Start is in the device's own page
// address space (device-local for striped arrays, logical for engines that
// address devices by logical page). Src tags which graph source the pages
// came from when one pipeline iterates several sources (a base CSR plus
// sealed delta segments); single-source engines leave it 0.
type Buffer struct {
	Data     []byte
	Dev      int
	Start    int64
	NumPages int
	Src      int
}

// ClaimBatch bounds how many queue items pipeline procs move per lock
// acquisition on the real-time backend. Small enough that holding a batch
// never starves the pipeline (BufferCount keeps at least 2 buffers per
// device and each batch returns promptly), large enough to amortize the
// mutex on the per-page hot path. The virtual-time queues transfer one
// item per batch call regardless, preserving the calibrated figures.
const ClaimBatch = 4

// BufferCount sizes the free/filled queue budget: budgetBytes of bufLen
// buffers, floored at two per device (so no reader can starve) and capped
// at the page frontier size plus that floor (no point allocating more).
func BufferCount(budgetBytes int64, bufLen, numDev int, pages int64) int {
	n := int(budgetBytes / int64(bufLen))
	if n < 2*numDev {
		n = 2 * numDev
	}
	if int64(n) > pages+int64(2*numDev) {
		n = int(pages) + 2*numDev
	}
	return n
}

// NewQueues returns the free/filled MPMC queue pair for count buffers.
func NewQueues(ctx exec.Context, count int) (free, filled exec.Queue[*Buffer]) {
	return exec.NewQueue[*Buffer](ctx, count), exec.NewQueue[*Buffer](ctx, count)
}

// Stock fills the free queue with count freshly allocated buffers of
// bufLen bytes, one Push per buffer (the stocking pattern the virtual-time
// figures were calibrated against).
func Stock(p exec.Proc, free exec.Queue[*Buffer], count, bufLen int) {
	for i := 0; i < count; i++ {
		free.Push(p, &Buffer{Data: make([]byte, bufLen)})
	}
}

// MergeFrontiers folds per-proc output frontiers into one new sealed subset
// over n vertices; nil entries (procs that produced no frontier) are
// skipped. It is frontier.Union: the parts' bitmaps are ORed word by word
// and the result is built once in its final representation — no per-vertex
// re-insertion, and the only allocation is the returned subset, so the
// parts stay the caller's to reuse (engine.Pool keeps EdgeMap's gather
// frontiers across rounds).
func MergeFrontiers(n uint32, fronts []*frontier.VertexSubset) *frontier.VertexSubset {
	return frontier.Union(n, fronts)
}
