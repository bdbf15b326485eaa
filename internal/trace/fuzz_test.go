package trace

import (
	"fmt"
	"sync"
	"testing"
)

// fakeProc is a minimal Proc for exercising rings without an exec backend.
type fakeProc struct {
	name string
	now  int64
	ring *Ring
}

func (p *fakeProc) Name() string         { return p.name }
func (p *fakeProc) Now() int64           { return p.now }
func (p *fakeProc) TraceRing() *Ring     { return p.ring }
func (p *fakeProc) SetTraceRing(r *Ring) { p.ring = r }

// FuzzTraceRing drives concurrent span emission (one writer goroutine per
// ring) against a concurrent chunk drainer and checks the ring invariants:
// no event is lost or duplicated, per-proc timestamps stay in emission
// order, and none of it races (the CI leg runs this under -race).
func FuzzTraceRing(f *testing.F) {
	f.Add(uint8(3), uint16(5000), false)
	f.Add(uint8(1), uint16(4096), true) // exactly one chunk
	f.Add(uint8(8), uint16(9000), true)
	f.Add(uint8(2), uint16(1), false)
	f.Fuzz(func(t *testing.T, procs uint8, perProc uint16, concurrentDrain bool) {
		np := int(procs)%8 + 1
		n := int(perProc)%(3*chunkCap) + 1
		tr := New(Config{})

		rings := make([]*Ring, np)
		for i := 0; i < np; i++ {
			p := &fakeProc{name: fmt.Sprintf("w%d", i)}
			rings[i] = tr.Attach(p, StageScatter, int32(i))
			if got := tr.Attach(p, StageGather, 99); got != rings[i] {
				t.Fatalf("Attach not idempotent: second call replaced the ring")
			}
		}

		// drained[i] accumulates ring i's chunks in hand-off order; only the
		// collector goroutine (then the final drain, after it stopped)
		// appends, so the slices need no lock.
		drained := make([][]Event, np)
		stop := make(chan struct{})
		var collector sync.WaitGroup
		if concurrentDrain {
			collector.Add(1)
			go func() {
				defer collector.Done()
				for {
					for i, r := range rings {
						for _, c := range r.Drain() {
							drained[i] = append(drained[i], c...)
						}
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}

		var writers sync.WaitGroup
		for i := 0; i < np; i++ {
			i := i
			writers.Add(1)
			go func() {
				defer writers.Done()
				now := int64(0)
				for j := 0; j < n; j++ {
					now += int64(j%7) + 1
					rings[i].Span(OpSinkBuf, int32(i), now-1, now, int64(j))
				}
				rings[i].Seal()
			}()
		}
		writers.Wait()
		close(stop)
		collector.Wait()
		for i, r := range rings {
			for _, c := range r.Drain() {
				drained[i] = append(drained[i], c...)
			}
		}

		for i := range rings {
			if kept := len(drained[i]); kept != n {
				t.Fatalf("ring %d: kept %d of %d events", i, kept, n)
			}
			last := int64(-1)
			for k, e := range drained[i] {
				if e.Start < last {
					t.Fatalf("ring %d: event %d start %d < previous %d", i, k, e.Start, last)
				}
				last = e.Start
			}
		}
	})
}

// TestTraceRingDisabled pins the zero-cost contract: a nil ring and a
// disabled tracer's ring both record nothing and report inactive.
func TestTraceRingDisabled(t *testing.T) {
	var nilRing *Ring
	if nilRing.Active() {
		t.Fatal("nil ring reports active")
	}
	nilRing.Span(OpDevRead, 0, 0, 10, 1) // must not panic
	nilRing.Instant(OpDevRetry, 0, 5, 1)
	nilRing.Counter(OpFreeLen, 0, 5, 3)

	tr := New(Config{})
	tr.SetEnabled(false)
	p := &fakeProc{name: "w"}
	r := tr.Attach(p, StageIO, 0)
	if r == nil {
		t.Fatal("disabled tracer must still attach rings (the overhead gate measures this path)")
	}
	if r.Active() {
		t.Fatal("ring active while tracer disabled")
	}
	r.Span(OpDevRead, 0, 0, 10, 1)
	if got := tr.Collect().Events(); got != 0 {
		t.Fatalf("disabled tracer recorded %d events", got)
	}

	var nilTracer *Tracer
	if nilTracer.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	nilTracer.SetEnabled(true) // must not panic
	if got := nilTracer.Collect().Events(); got != 0 {
		t.Fatalf("nil tracer collected %d events", got)
	}
}

// TestTraceSummarize checks the aggregation invariant the CLI relies on:
// phase durations plus the "other" remainder reconstruct the makespan.
func TestTraceSummarize(t *testing.T) {
	tr := New(Config{})
	coord := &fakeProc{name: "main"}
	cr := tr.Attach(coord, StageCoord, -1)
	cr.Span(OpPhase, -1, 0, 100, int64(PhaseSource))
	cr.Span(OpPhase, -1, 100, 900, int64(PhasePipeline))
	cr.Span(OpPhase, -1, 900, 1000, int64(PhaseMerge))

	io := &fakeProc{name: "io0"}
	ir := tr.Attach(io, StageIO, 0)
	ir.Span(OpDevRead, 0, 120, 400, 4)
	ir.Instant(OpDevRetry, 0, 150, 1)
	ir.Counter(OpFilledLen, 0, 410, 3)

	s := Summarize(tr.Collect())
	if s.MakespanNs != 1000 {
		t.Fatalf("makespan = %d, want 1000", s.MakespanNs)
	}
	var phases int64
	for _, ph := range s.Phases {
		phases += ph.NS
	}
	if phases+s.OtherNs != s.MakespanNs {
		t.Fatalf("phases %d + other %d != makespan %d", phases, s.OtherNs, s.MakespanNs)
	}
	if cov := s.PhaseCoverage(); cov < 0.99 {
		t.Fatalf("phase coverage %.3f, want >= 0.99", cov)
	}
	var dev *DevIO
	for i := range s.Devices {
		if s.Devices[i].Dev == 0 {
			dev = &s.Devices[i]
		}
	}
	if dev == nil || dev.Requests != 1 || dev.Pages != 4 || dev.Retries != 1 {
		t.Fatalf("device 0 aggregation wrong: %+v", dev)
	}
}
