package bin

import (
	"testing"

	"blaze/internal/exec"
	"blaze/internal/trace"
)

// runStagerEmit measures the scatter hot path: staging one record,
// including its amortized share of stage flushes into bin buffers. Bin
// space is sized so buffers never fill (no gather proc needed), which is
// exactly the steady state inside one EdgeMap round. The Emit path must be
// allocation-free and atomic-free after warm-up.
//
// When tr is non-nil its ring is attached to the emitting proc, so the
// flush path runs the ring lookup and enabled check — the disabled-tracing
// cost the CI overhead gate bounds against the no-ring baseline.
func runStagerEmit(b *testing.B, tr *trace.Tracer) {
	b.ReportAllocs()
	ctx := exec.NewReal()
	ctx.Run("main", func(p exec.Proc) {
		tr.Attach(p, trace.StageScatter, 0)
		m := emitBenchManager(ctx, p)
		st := m.NewStager()
		// Touch every stage row once so steady-state emits are measured,
		// then reset the timer.
		for d := uint32(0); d < 4096; d++ {
			st.Emit(p, d, 1)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Emit(p, uint32(i)&4095, int64(i))
		}
		b.StopTimer()
		st.FlushAll(p)
		m.CloseFull()
		if got := st.Emits(); got < int64(b.N) {
			b.Fatalf("emits = %d, want >= %d", got, b.N)
		}
	})
}

// emitBenchManager primes the Manager the emit benchmarks share: bin space
// sized so buffers never fill within one run, and a background gather that
// recycles any buffer that does fill at very large b.N, so the pair protocol
// can never stall the benchmark. The caller ends the gather with CloseFull.
func emitBenchManager(ctx exec.Context, p exec.Proc) *Manager[int64] {
	m := NewManager[int64](ctx, Config{BinCount: 1024, SpaceBytes: 1 << 30, RecordBytes: 12})
	m.Prime(p)
	ctx.Go("gather", func(gp exec.Proc) {
		for {
			buf, ok := m.Full.Pop(gp)
			if !ok {
				return
			}
			m.Return(gp, buf)
		}
	})
	return m
}

// BenchmarkStagerEmit is the untraced baseline: no ring attached.
func BenchmarkStagerEmit(b *testing.B) {
	runStagerEmit(b, nil)
}

// BenchmarkStagerEmitRingAttached runs the same loop with a trace ring
// attached but the tracer disabled — the configuration every production run
// without -trace is in. Compare against BenchmarkStagerEmit to see the
// disabled-tracing overhead; TestTraceOverheadGate enforces the bound in CI.
func BenchmarkStagerEmitRingAttached(b *testing.B) {
	tr := trace.New(trace.Config{})
	tr.SetEnabled(false)
	runStagerEmit(b, tr)
}

// BenchmarkStagerEmitContended is runStagerEmit's loop on two procs at once,
// each with its own stager, sharing one Manager — what two scatter procs do
// in EdgeMap. Every bin's slot and active buffer move between the two cores
// about every other flush, which the single-producer benchmark cannot see:
// compare ns/op here (per record, both procs counted) with twice
// BenchmarkStagerEmit's.
func BenchmarkStagerEmitContended(b *testing.B) {
	b.ReportAllocs()
	const procs = 2
	ctx := exec.NewReal()
	ctx.Run("main", func(p exec.Proc) {
		m := emitBenchManager(ctx, p)
		stagers := make([]*Stager[int64], procs)
		for i := range stagers {
			stagers[i] = m.NewStager()
			for d := uint32(0); d < 4096; d++ {
				stagers[i].Emit(p, d, 1)
			}
		}
		wg := ctx.NewWaitGroup()
		wg.Add(procs)
		b.ResetTimer()
		for i := range stagers {
			st, n := stagers[i], (b.N+procs-1)/procs
			ctx.Go("scatter", func(sp exec.Proc) {
				// Odd multiplier: each proc walks all 4096 destinations in
				// its own scrambled order, as hashed vertex IDs would.
				for k := 0; k < n; k++ {
					st.Emit(sp, uint32(k*(2*i+3))&4095, int64(k))
				}
				wg.Done(sp)
			})
		}
		wg.Wait(p)
		b.StopTimer()
		for _, st := range stagers {
			st.FlushAll(p)
		}
		m.CloseFull()
	})
}
