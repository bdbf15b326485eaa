package bin

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"

	"blaze/internal/alloctest"
	"blaze/internal/exec"
)

// drainAll runs nGather gather procs that apply records into out (indexed
// by dst) and returns when the full queue closes. It also asserts the
// no-concurrent-drain-per-bin invariant under the Sim backend.
func runPipeline(t *testing.T, ctx exec.Context, binCount, nScatter, nGather, perScatter int, vertices uint32) []int64 {
	t.Helper()
	out := make([]int64, vertices)
	ctx.Run("main", func(p exec.Proc) {
		m := NewManager[int64](ctx, Config{BinCount: binCount, SpaceBytes: 1 << 14, RecordBytes: 12})
		m.Prime(p)
		scatterWG := ctx.NewWaitGroup()
		scatterWG.Add(nScatter)
		for i := 0; i < nScatter; i++ {
			id := i
			ctx.Go(fmt.Sprintf("scatter%d", i), func(c exec.Proc) {
				st := m.NewStager()
				for j := 0; j < perScatter; j++ {
					dst := uint32((id*perScatter + j)) % vertices
					st.Emit(c, dst, 1)
					c.Advance(5)
				}
				st.FlushAll(c)
				scatterWG.Done(c)
			})
		}
		gatherWG := ctx.NewWaitGroup()
		gatherWG.Add(nGather)
		draining := make([]int32, binCount) // invariant check
		for i := 0; i < nGather; i++ {
			ctx.Go(fmt.Sprintf("gather%d", i), func(c exec.Proc) {
				for {
					buf, ok := m.Full.Pop(c)
					if !ok {
						break
					}
					c.Sync()
					draining[buf.BinID]++
					if draining[buf.BinID] > 1 {
						t.Errorf("bin %d drained by two gathers concurrently", buf.BinID)
					}
					for _, r := range buf.Records {
						if int(r.Dst)%binCount != buf.BinID {
							t.Errorf("record for dst %d in wrong bin %d", r.Dst, buf.BinID)
						}
						out[r.Dst] += r.Val
						c.Advance(10)
					}
					c.Sync()
					draining[buf.BinID]--
					m.Return(c, buf)
				}
				gatherWG.Done(c)
			})
		}
		scatterWG.Wait(p)
		m.FlushPartials(p)
		m.CloseFull()
		gatherWG.Wait(p)
		if m.Records() != int64(nScatter*perScatter) {
			t.Errorf("Records = %d, want %d", m.Records(), nScatter*perScatter)
		}
	})
	return out
}

func checkCounts(t *testing.T, out []int64, nScatter, perScatter int, vertices uint32) {
	t.Helper()
	want := make([]int64, vertices)
	for id := 0; id < nScatter; id++ {
		for j := 0; j < perScatter; j++ {
			want[uint32(id*perScatter+j)%vertices]++
		}
	}
	for v := range out {
		if out[v] != want[v] {
			t.Fatalf("vertex %d accumulated %d, want %d", v, out[v], want[v])
		}
	}
}

func TestPipelineSim(t *testing.T) {
	for _, tc := range []struct{ bins, sc, ga, per int }{
		{1, 1, 1, 100},
		{8, 4, 4, 500},
		{64, 2, 6, 1000},
		{1024, 8, 8, 2000},
	} {
		out := runPipeline(t, exec.NewSim(), tc.bins, tc.sc, tc.ga, tc.per, 333)
		checkCounts(t, out, tc.sc, tc.per, 333)
	}
}

func TestPipelineReal(t *testing.T) {
	out := runPipeline(t, exec.NewReal(), 32, 4, 4, 2000, 333)
	checkCounts(t, out, 4, 2000, 333)
}

func TestBufCapSizing(t *testing.T) {
	ctx := exec.NewSim()
	m := NewManager[int64](ctx, Config{BinCount: 16, SpaceBytes: 16 * 2 * 100 * 12, RecordBytes: 12})
	if m.BufCap() != 100 {
		t.Errorf("BufCap = %d, want 100", m.BufCap())
	}
	// Tiny space still yields at least StageCap.
	m2 := NewManager[int64](ctx, Config{BinCount: 1024, SpaceBytes: 10, RecordBytes: 12})
	if m2.BufCap() < StageCap {
		t.Errorf("BufCap = %d, want >= %d", m2.BufCap(), StageCap)
	}
}

// heldStagers keeps the stagers TestStagersShareNoCacheLine makes on the
// heap, where EdgeMap's pool keeps them; a stager that did not escape could
// live on the test's stack, at any 8-byte offset.
var heldStagers []*Stager[float64]

// TestStagersShareNoCacheLine pins the Stager padding: every stager starts
// on a 64-byte boundary and fills whole lines, so the stagers of two
// scatter procs never share one whatever the heap's history.
func TestStagersShareNoCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(Stager[float64]{}); n%64 != 0 {
		t.Fatalf("sizeof(Stager) = %d, want a multiple of 64", n)
	}
	m := NewManager[float64](exec.NewSim(), Config{BinCount: 16, SpaceBytes: 1 << 12, RecordBytes: 12})
	for i := 0; i < 64; i++ {
		heldStagers = append(heldStagers, m.NewStager())
	}
	for i, st := range heldStagers {
		if a := uintptr(unsafe.Pointer(st)); a%64 != 0 {
			t.Fatalf("stager %d at %#x, not on a cache line", i, a)
		}
	}
	heldStagers = nil
}

// TestStagerFirstEmitAllocatesNothing: a stager's stage is made with it,
// so a pooled stager whose proc emits for the first time in a warm round
// allocates nothing there. Each attempt is the first Emit of a stager of
// its own, and the fewest allocations over the attempts count, so the
// runtime's own work in one window cannot fail the test.
func TestStagerFirstEmitAllocatesNothing(t *testing.T) {
	const attempts = 5
	ctx := exec.NewSim()
	ctx.Run("main", func(p exec.Proc) {
		m := NewManager[float64](ctx, Config{BinCount: 1024, SpaceBytes: 1 << 20, RecordBytes: 12})
		m.Prime(p)
		stagers := make([]*Stager[float64], attempts)
		for i := range stagers {
			stagers[i] = m.NewStager()
		}
		next := 0
		n, _ := alloctest.Min(attempts, func() {
			stagers[next].Emit(p, 7, 0.5)
			next++
		})
		if n != 0 {
			t.Errorf("a new stager's first Emit made %d allocations, want 0", n)
		}
	})
}

func TestBinOfPartitionsVertices(t *testing.T) {
	ctx := exec.NewSim()
	m := NewManager[uint32](ctx, Config{BinCount: 7, SpaceBytes: 1 << 12, RecordBytes: 8})
	for v := uint32(0); v < 1000; v++ {
		if m.BinOf(v) != int(v%7) {
			t.Fatalf("BinOf(%d) = %d", v, m.BinOf(v))
		}
	}
}

// TestPairBackpressure verifies the paper's blocking behaviour: with both
// halves of a bin full and no gather running, the scatter proc blocks (and
// the Sim backend reports the deadlock).
func TestPairBackpressure(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected simulated deadlock when no gather drains full bins")
		}
	}()
	s := exec.NewSim()
	s.Run("main", func(p exec.Proc) {
		m := NewManager[int64](s, Config{BinCount: 1, SpaceBytes: 1, RecordBytes: 12})
		m.Prime(p)
		st := m.NewStager()
		// Fill far beyond two buffers with no gather side.
		for i := 0; i < 10*m.BufCap(); i++ {
			st.Emit(p, 0, 1)
		}
		st.FlushAll(p)
	})
}

func TestFlushPartialsPublishesLeftovers(t *testing.T) {
	s := exec.NewSim()
	var got int
	s.Run("main", func(p exec.Proc) {
		m := NewManager[int64](s, Config{BinCount: 4, SpaceBytes: 1 << 16, RecordBytes: 12})
		m.Prime(p)
		st := m.NewStager()
		for i := 0; i < 10; i++ { // far fewer than any buffer capacity
			st.Emit(p, uint32(i), 1)
		}
		st.FlushAll(p)
		m.FlushPartials(p)
		m.CloseFull()
		for {
			buf, ok := m.Full.Pop(p)
			if !ok {
				break
			}
			got += len(buf.Records)
			m.Return(p, buf)
		}
	})
	if got != 10 {
		t.Errorf("drained %d records, want 10", got)
	}
}

func TestStagerMemAccounting(t *testing.T) {
	s := exec.NewSim()
	m := NewManager[int64](s, Config{BinCount: 100, SpaceBytes: 1 << 16, RecordBytes: 12})
	st := m.NewStager()
	if st.MemBytes(12) != 100*StageCap*12 {
		t.Errorf("stager MemBytes = %d", st.MemBytes(12))
	}
	if m.MemBytes(12) != int64(100*2*m.BufCap()*12) {
		t.Errorf("manager MemBytes = %d", m.MemBytes(12))
	}
}

func TestEmitsCounter(t *testing.T) {
	s := exec.NewSim()
	s.Run("main", func(p exec.Proc) {
		m := NewManager[int64](s, Config{BinCount: 4, SpaceBytes: 1 << 16, RecordBytes: 12})
		m.Prime(p)
		st := m.NewStager()
		for i := 0; i < 25; i++ {
			st.Emit(p, uint32(i%4), 1)
		}
		if st.Emits() != 25 {
			t.Errorf("Emits = %d, want 25", st.Emits())
		}
	})
}

// TestOneBufferPerBinOnGatherSide is the no-synchronization guarantee as a
// property, on both backends: with 4 scatter and 2 gather procs and buffers
// so small that every staging flush publishes one, a gather proc holding a
// buffer of bin b never overlaps another holding bin b's other half — the
// scatter side cannot publish it before the first is Returned. Every record
// still arrives exactly once.
func TestOneBufferPerBinOnGatherSide(t *testing.T) {
	const bins, nScatter, nGather, perScatter, vertices = 8, 4, 2, 4000, 64
	for _, be := range []struct {
		name string
		ctx  exec.Context
	}{{"sim", exec.NewSim()}, {"real", exec.NewReal()}} {
		t.Run(be.name, func(t *testing.T) {
			ctx := be.ctx
			var onGather [bins]atomic.Int32
			var sums [vertices]atomic.Int64
			ctx.Run("main", func(p exec.Proc) {
				// SpaceBytes 1 floors the buffer capacity at StageCap.
				m := NewManager[int64](ctx, Config{BinCount: bins, SpaceBytes: 1, RecordBytes: 12})
				m.Prime(p)
				swg, gwg := ctx.NewWaitGroup(), ctx.NewWaitGroup()
				swg.Add(nScatter)
				gwg.Add(nGather)
				for id := 0; id < nScatter; id++ {
					ctx.Go(fmt.Sprintf("scatter%d", id), func(c exec.Proc) {
						st := m.NewStager()
						for j := 0; j < perScatter; j++ {
							st.Emit(c, uint32(id*perScatter+j)%vertices, 1)
							c.Advance(5)
						}
						st.FlushAll(c)
						swg.Done(c)
					})
				}
				for id := 0; id < nGather; id++ {
					ctx.Go(fmt.Sprintf("gather%d", id), func(c exec.Proc) {
						for {
							buf, ok := m.Full.Pop(c)
							if !ok {
								break
							}
							if n := onGather[buf.BinID].Add(1); n != 1 {
								t.Errorf("bin %d has %d buffers on the gather side", buf.BinID, n)
							}
							for _, r := range buf.Records {
								if m.BinOf(r.Dst) != buf.BinID {
									t.Errorf("record for dst %d in bin %d", r.Dst, buf.BinID)
								}
								sums[r.Dst].Add(r.Val)
							}
							// Linger, so a scatter proc that could publish
							// this bin's other half would.
							c.Advance(200)
							runtime.Gosched()
							onGather[buf.BinID].Add(-1)
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
			for v := range sums {
				if got, want := sums[v].Load(), int64(nScatter*perScatter/vertices); got != want {
					t.Fatalf("vertex %d gathered %d records, want %d", v, got, want)
				}
			}
		})
	}
}

// TestReopen: a Manager retained from a clean round serves another one
// under the same context and configuration only, with its counters zeroed,
// its full queue open again, and — in a later Run, whose clocks restart at
// zero — none of the earlier round's instants left on its slots.
func TestReopen(t *testing.T) {
	ctx := exec.NewSim()
	cfg := Config{BinCount: 4, SpaceBytes: 1 << 12, RecordBytes: 12}
	m := NewManager[int64](ctx, cfg)
	round := func(p exec.Proc, st *Stager[int64]) (got int) {
		for i := 0; i < 100; i++ {
			st.Emit(p, uint32(i), 1)
		}
		st.FlushAll(p)
		m.FlushPartials(p)
		m.CloseFull()
		for {
			buf, ok := m.Full.Pop(p)
			if !ok {
				return got
			}
			got += len(buf.Records)
			m.Return(p, buf)
		}
	}
	var st *Stager[int64]
	ctx.Run("first", func(p exec.Proc) {
		p.Advance(5000) // every Put of this round is stamped 5000
		m.Prime(p)
		st = m.NewStager()
		if got := round(p, st); got != 100 {
			t.Fatalf("first round gathered %d records, want 100", got)
		}
		other := cfg
		other.BinCount = 8
		if m.Reopen(ctx, p, other) {
			t.Error("Reopen accepted a different BinCount")
		}
		if m.Reopen(exec.NewSim(), p, cfg) {
			t.Error("Reopen accepted a different context")
		}
	})
	ctx.Run("second", func(p exec.Proc) {
		p.Advance(7)
		if !m.Reopen(ctx, p, cfg) {
			t.Fatal("Reopen refused the context and configuration it was built with")
		}
		if m.Records() != 0 {
			t.Errorf("reopened with Records %d, want 0", m.Records())
		}
		if got := round(p, st); got != 100 {
			t.Errorf("second round gathered %d records, want 100", got)
		}
		if m.Records() != 100 {
			t.Errorf("Records = %d after the second round, want 100 (this round's only)", m.Records())
		}
		// The round charges no model time (FlushCostNs 0), so the clock can
		// only have moved by inheriting a stamp from the first Run.
		if p.Now() != 7 {
			t.Errorf("clock after the reopened round = %d, want 7: a slot kept the previous Run's instant", p.Now())
		}
	})
}
