package bin

import (
	"testing"
	"testing/quick"

	"blaze/internal/exec"
)

// TestPipelinePropertyConservation drives random binning configurations
// through the full scatter→bins→gather pipeline and checks conservation:
// every emitted (dst, value) record is gathered exactly once, regardless
// of bin count, buffer sizing, staging capacity, or proc counts. Each
// configuration runs on both backends, with its drawn staging capacity
// (often above the buffer the budget alone would give) and with the
// backend's default, so the host stage runs under real concurrency.
func TestPipelinePropertyConservation(t *testing.T) {
	f := func(binRaw, spaceRaw, stageRaw, scRaw, gaRaw uint8, nRaw uint16) bool {
		binCount := int(binRaw)%200 + 1
		space := int64(spaceRaw) * 256
		nScatter := int(scRaw)%6 + 1
		nGather := int(gaRaw)%6 + 1
		records := int(nRaw)%4000 + 100
		for _, stage := range []int{int(stageRaw)%96 + 1, 0} {
			for _, ctx := range []exec.Context{exec.NewSim(), exec.NewReal()} {
				if !conserves(ctx, binCount, space, stage, nScatter, nGather, records) {
					t.Logf("%T: bins %d, space %d, stage %d, %d scatter, %d gather, %d records",
						ctx, binCount, space, stage, nScatter, nGather, records)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// conserves runs one configuration of the conservation property under ctx.
func conserves(ctx exec.Context, binCount int, space int64, stage, nScatter, nGather, records int) bool {
	const vertices = 257 // prime, exercises uneven bin ownership
	sums := make([]int64, vertices)
	gathered := make([]int64, nGather) // one counter per gather proc
	ctx.Run("main", func(p exec.Proc) {
		m := NewManager[int64](ctx, Config{
			BinCount:    binCount,
			SpaceBytes:  space,
			RecordBytes: 12,
			StageCap:    stage,
		})
		m.Prime(p)
		swg := ctx.NewWaitGroup()
		swg.Add(nScatter)
		for w := 0; w < nScatter; w++ {
			ctx.Go("s", func(c exec.Proc) {
				st := m.NewStager()
				for i := w; i < records; i += nScatter {
					st.Emit(c, uint32(i%vertices), int64(i))
				}
				st.FlushAll(c)
				swg.Done(c)
			})
		}
		gwg := ctx.NewWaitGroup()
		gwg.Add(nGather)
		for w := 0; w < nGather; w++ {
			ctx.Go("g", func(c exec.Proc) {
				for {
					buf, ok := m.Full.Pop(c)
					if !ok {
						break
					}
					// One buffer per bin on the gather side: no other
					// gather proc touches these vertices meanwhile.
					for _, r := range buf.Records {
						sums[r.Dst] += r.Val
					}
					gathered[w] += int64(len(buf.Records))
					m.Return(c, buf)
				}
				gwg.Done(c)
			})
		}
		swg.Wait(p)
		m.FlushPartials(p)
		m.CloseFull()
		gwg.Wait(p)
	})
	var total int64
	for _, n := range gathered {
		total += n
	}
	if total != int64(records) {
		return false
	}
	// Per-vertex sums must match the arithmetic series split.
	want := make([]int64, vertices)
	for i := 0; i < records; i++ {
		want[i%vertices] += int64(i)
	}
	for v := range want {
		if sums[v] != want[v] {
			return false
		}
	}
	return true
}

// TestStageCapOverride: the configured staging capacity controls flush
// granularity, counted by the flush cost each flush charges. Unset, the
// virtual-time backend stages the model's StageCap, so every modelled
// figure is charged one BinFlush per 8 records of a bin, whatever the host
// stages.
func TestStageCapOverride(t *testing.T) {
	for _, tc := range []struct {
		stage, records int
		want           int64
	}{
		{4, 8, 2000},  // two flushes of an explicit 4
		{0, 24, 3000}, // three flushes of the default 8
	} {
		ctx := exec.NewSim()
		ctx.Run("main", func(p exec.Proc) {
			m := NewManager[int64](ctx, Config{BinCount: 1, SpaceBytes: 1 << 20, RecordBytes: 12, StageCap: tc.stage, FlushCostNs: 1000})
			m.Prime(p)
			st := m.NewStager()
			for i := 0; i < tc.records; i++ {
				st.Emit(p, 0, 1)
			}
			st.FlushAll(p) // nothing left staged: no further flush
			if p.Now() != tc.want {
				t.Errorf("StageCap %d, %d records: clock = %d, want %d", tc.stage, tc.records, p.Now(), tc.want)
			}
		})
	}
}

// TestStageCapDefault pins the unset staging capacity per backend: StageCap
// under Sim, hostStageCap under Real. A bin's active half receives nothing
// until the stage is full, then exactly one stage.
func TestStageCapDefault(t *testing.T) {
	for _, be := range []struct {
		name  string
		ctx   exec.Context
		stage int
	}{{"sim", exec.NewSim(), StageCap}, {"real", exec.NewReal(), hostStageCap}} {
		t.Run(be.name, func(t *testing.T) {
			be.ctx.Run("main", func(p exec.Proc) {
				m := NewManager[int64](be.ctx, Config{BinCount: 1, SpaceBytes: 1 << 20, RecordBytes: 12})
				m.Prime(p)
				binned := func() int {
					recs := m.slot[0].Take(p)
					m.slot[0].Put(p, recs)
					return len(recs)
				}
				st := m.NewStager()
				for i := 1; i < be.stage; i++ {
					st.Emit(p, 0, 1)
				}
				if n := binned(); n != 0 {
					t.Errorf("%d records binned one short of a full stage, want 0", n)
				}
				st.Emit(p, 0, 1)
				if n := binned(); n != be.stage {
					t.Errorf("%d records binned by a full stage, want %d", n, be.stage)
				}
			})
		})
	}
}

// TestFlushCostCharged: the configured flush cost advances the emitting
// proc's virtual clock.
func TestFlushCostCharged(t *testing.T) {
	ctx := exec.NewSim()
	ctx.Run("main", func(p exec.Proc) {
		m := NewManager[int64](ctx, Config{BinCount: 1, SpaceBytes: 1 << 20, RecordBytes: 12, StageCap: 2, FlushCostNs: 1000})
		m.Prime(p)
		st := m.NewStager()
		st.Emit(p, 0, 1)
		st.Emit(p, 0, 1) // triggers one flush
		if p.Now() != 1000 {
			t.Errorf("clock = %d after one flush, want 1000", p.Now())
		}
	})
}
