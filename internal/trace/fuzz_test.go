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
// ring) and checks the trace Collect returns once the writers have finished:
// every ring's events come back once each, in emission order, across chunk
// boundaries, and none of it races (the CI leg runs this under -race).
func FuzzTraceRing(f *testing.F) {
	f.Add(uint8(3), uint16(5000))
	f.Add(uint8(1), uint16(4096)) // exactly one chunk
	f.Add(uint8(8), uint16(9000))
	f.Add(uint8(2), uint16(1))
	f.Fuzz(func(t *testing.T, procs uint8, perProc uint16) {
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

		var writers sync.WaitGroup
		for i := 0; i < np; i++ {
			writers.Add(1)
			go func() {
				defer writers.Done()
				now := int64(0)
				for j := 0; j < n; j++ {
					now += int64(j%7) + 1
					rings[i].Span(OpSinkBuf, int32(i), now-1, now, int64(j))
				}
			}()
		}
		writers.Wait()

		got := tr.Collect()
		if len(got.Procs) != np {
			t.Fatalf("collected %d rings, want %d", len(got.Procs), np)
		}
		for i, pt := range got.Procs {
			if pt.ID != i || pt.Dev != int32(i) {
				t.Fatalf("ring %d collected as ID %d, dev %d", i, pt.ID, pt.Dev)
			}
			if kept := len(pt.Events); kept != n {
				t.Fatalf("ring %d: kept %d of %d events", i, kept, n)
			}
			for k, e := range pt.Events {
				if e.Arg != int64(k) {
					t.Fatalf("ring %d: event %d carries %d: lost, duplicated or reordered", i, k, e.Arg)
				}
			}
		}
	})
}

// TestTraceRingDisabled pins the zero-cost contract: tracing is off exactly
// when there is no ring, and a nil ring records nothing and reports
// inactive, as a nil tracer attaches nothing and collects nothing.
func TestTraceRingDisabled(t *testing.T) {
	var nilRing *Ring
	if nilRing.Active() {
		t.Fatal("nil ring reports active")
	}
	nilRing.Span(OpDevRead, 0, 0, 10, 1) // must not panic
	nilRing.Instant(OpDevRetry, 0, 5, 1)
	nilRing.Counter(OpFreeLen, 0, 5, 3)

	var nilTracer *Tracer
	if r := nilTracer.Attach(&fakeProc{name: "w"}, StageIO, 0); r != nil {
		t.Fatal("nil tracer attached a ring")
	}
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
