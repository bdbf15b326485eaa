package bin

import (
	"testing"
	"testing/quick"

	"blaze/internal/exec"
)

// TestPipelinePropertyConservation drives random binning configurations
// through the full scatter→bins→gather pipeline and checks conservation:
// every emitted (dst, value) record is gathered exactly once, regardless
// of bin count, buffer sizing, staging capacity, or proc counts.
func TestPipelinePropertyConservation(t *testing.T) {
	f := func(binRaw, spaceRaw, stageRaw, scRaw, gaRaw uint8, nRaw uint16) bool {
		binCount := int(binRaw)%200 + 1
		space := int64(spaceRaw) * 256
		stage := int(stageRaw)%32 + 1
		nScatter := int(scRaw)%6 + 1
		nGather := int(gaRaw)%6 + 1
		records := int(nRaw)%4000 + 100
		const vertices = 257 // prime, exercises uneven bin ownership

		ctx := exec.NewSim()
		sums := make([]int64, vertices)
		var gathered, managerRecords int64
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
				id := w
				ctx.Go("s", func(c exec.Proc) {
					st := m.NewStager()
					for i := id; i < records; i += nScatter {
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
						for _, r := range buf.Records {
							sums[r.Dst] += r.Val
							gathered++
						}
						m.Return(c, buf)
					}
					gwg.Done(c)
				})
			}
			swg.Wait(p)
			m.FlushPartials(p)
			m.CloseFull()
			gwg.Wait(p)
			managerRecords = m.Records()
		})
		if gathered != int64(records) {
			return false
		}
		// Flush-time aggregation must preserve the invariant that the
		// Manager's record count equals the total emits across stagers.
		if managerRecords != int64(records) {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestStageCapOverride: the configured staging capacity controls flush
// granularity, counted by the flush cost each flush charges.
func TestStageCapOverride(t *testing.T) {
	ctx := exec.NewSim()
	ctx.Run("main", func(p exec.Proc) {
		m := NewManager[int64](ctx, Config{BinCount: 1, SpaceBytes: 1 << 20, RecordBytes: 12, StageCap: 4, FlushCostNs: 1000})
		m.Prime(p)
		st := m.NewStager()
		for i := 0; i < 8; i++ {
			st.Emit(p, 0, 1)
		}
		st.FlushAll(p) // nothing left staged: no third flush
		if p.Now() != 2000 {
			t.Errorf("clock = %d, want 2000: two flushes (8 records / cap 4)", p.Now())
		}
	})
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
