package pipeline

import (
	"blaze/internal/exec"
	"blaze/internal/trace"
)

// Drain is the sink-side consumption loop shared by every engine's compute
// procs: pop filled buffers until the stream closes, process each one, and
// recycle every buffer back to the free queue — including after a latched
// failure, so readers blocked on an empty free queue always wake and the
// pipeline drains instead of deadlocking. Items move in ClaimBatch groups
// per lock acquisition on the real-time backend (the virtual-time queue
// transfers one per call), through batch, which the caller keeps so that a
// sink it spawns again allocates nothing.
func Drain(p exec.Proc, free, filled exec.Queue[*Buffer], latch *exec.Latch, batch *[ClaimBatch]*Buffer, process func(buf *Buffer)) {
	tr := trace.RingOf(p)
	for {
		var waitFrom int64
		if tr.Active() {
			waitFrom = p.Now()
		}
		n := filled.PopBatch(p, batch[:])
		if n == 0 {
			return
		}
		if tr.Active() {
			tr.Span(trace.OpSinkWait, int32(batch[0].Dev), waitFrom, p.Now(), int64(n))
		}
		for _, buf := range batch[:n] {
			// After a failure, recycle without processing: the data may
			// be absent or partial.
			if latch.Failed() {
				continue
			}
			if tr.Active() {
				from := p.Now()
				process(buf)
				tr.Span(trace.OpSinkBuf, int32(buf.Dev), from, p.Now(), int64(buf.NumPages))
				continue
			}
			process(buf)
		}
		free.PushN(p, batch[:n])
		if tr.Active() {
			tr.Counter(trace.OpFreeLen, 0, p.Now(), int64(free.Len()))
		}
	}
}
