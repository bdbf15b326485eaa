package iosched

import (
	"bytes"
	"testing"

	"blaze/internal/exec"
	"blaze/internal/metrics"
	"blaze/internal/ssd"
)

// memDevice builds a one-device memory array of n pages with
// deterministic page contents and returns the device plus its stats.
func memDevice(ctx exec.Context, pages int) (*ssd.Device, *metrics.IOStats) {
	data := make([]byte, pages*ssd.PageSize)
	for i := range data {
		data[i] = byte(i / ssd.PageSize)
	}
	stats := metrics.NewIOStats(1)
	arr := ssd.NewMemArray(ctx, 0, 1, ssd.OptaneSSD, data, stats, nil)
	return arr.Device(0), stats
}

// TestCoalesceAttach: a request fully covered by a pending read attaches —
// same data, same completion instant, no second device read.
func TestCoalesceAttach(t *testing.T) {
	ctx := exec.NewSim()
	dev, stats := memDevice(ctx, 64)
	sessStats := metrics.NewIOStats(1)
	s := New(dev, Config{Stats: sessStats})
	q0 := metrics.NewIOStats(1)
	q1 := metrics.NewIOStats(1)
	s.Register(0, q0)
	s.Register(1, q1)

	buf0 := make([]byte, 4*ssd.PageSize)
	buf1 := make([]byte, 2*ssd.PageSize)
	var done0, done1 int64
	ctx.Run("main", func(p exec.Proc) {
		var err error
		done0, err = s.ScheduleRead(p, 0, 8, 4, buf0)
		if err != nil {
			t.Errorf("read 0: %v", err)
		}
		// Fully inside [8, 12) while that read is still in flight.
		done1, err = s.ScheduleRead(p, 1, 9, 2, buf1)
		if err != nil {
			t.Errorf("read 1: %v", err)
		}
	})
	if done1 != done0 {
		t.Errorf("attached read completes at %d, covering read at %d", done1, done0)
	}
	if !bytes.Equal(buf1, buf0[ssd.PageSize:3*ssd.PageSize]) {
		t.Error("attached read returned different data")
	}
	if got := stats.Requests(); got != 1 {
		t.Errorf("device requests = %d, want 1 (second read coalesced)", got)
	}
	if got := sessStats.CoalescedPages(); got != 2 {
		t.Errorf("session coalesced pages = %d, want 2", got)
	}
	if q0.CoalescedPages() != 0 || q0.PagesRead() != 4 {
		t.Errorf("query 0 attribution = (%d read, %d coalesced), want (4, 0)",
			q0.PagesRead(), q0.CoalescedPages())
	}
	if q1.CoalescedPages() != 2 || q1.PagesRead() != 0 {
		t.Errorf("query 1 attribution = (%d read, %d coalesced), want (0, 2)",
			q1.PagesRead(), q1.CoalescedPages())
	}
}

// TestPartialOverlapNotAttached: a request that overlaps a pending read
// but starts before it or runs past it is a device read of its own: the
// flight does not hold all its pages.
func TestPartialOverlapNotAttached(t *testing.T) {
	ctx := exec.NewSim()
	dev, stats := memDevice(ctx, 64)
	s := New(dev, Config{})
	ctx.Run("main", func(p exec.Proc) {
		buf := make([]byte, 4*ssd.PageSize)
		for q, start := range []int64{8, 6, 10} {
			if _, err := s.ScheduleRead(p, int32(q), start, 4, buf); err != nil {
				t.Errorf("read of [%d, %d): %v", start, start+4, err)
			}
		}
	})
	if got := stats.Requests(); got != 3 {
		t.Errorf("device requests = %d, want 3: neither [6, 10) nor [10, 14) lies inside the pending [8, 12)", got)
	}
}

// TestNoCoalesceKnob: with coalescing disabled the same pair costs two
// device reads.
func TestNoCoalesceKnob(t *testing.T) {
	ctx := exec.NewSim()
	dev, stats := memDevice(ctx, 64)
	s := New(dev, Config{NoCoalesce: true})
	ctx.Run("main", func(p exec.Proc) {
		buf := make([]byte, 4*ssd.PageSize)
		if _, err := s.ScheduleRead(p, 0, 8, 4, buf); err != nil {
			t.Errorf("read 0: %v", err)
		}
		if _, err := s.ScheduleRead(p, 1, 9, 2, buf[:2*ssd.PageSize]); err != nil {
			t.Errorf("read 1: %v", err)
		}
	})
	if got := stats.Requests(); got != 2 {
		t.Errorf("device requests = %d, want 2 with NoCoalesce", got)
	}
}

// TestExpiredFlightNotAttached: once the covering read's completion time
// has passed, a new request is a fresh device read (the data may have
// left the submitter's buffer).
func TestExpiredFlightNotAttached(t *testing.T) {
	ctx := exec.NewSim()
	dev, stats := memDevice(ctx, 64)
	s := New(dev, Config{})
	ctx.Run("main", func(p exec.Proc) {
		buf := make([]byte, 4*ssd.PageSize)
		done, err := s.ScheduleRead(p, 0, 8, 4, buf)
		if err != nil {
			t.Errorf("read 0: %v", err)
		}
		p.Advance(done - p.Now() + 1) // flight completes
		if _, err := s.ScheduleRead(p, 1, 9, 2, buf[:2*ssd.PageSize]); err != nil {
			t.Errorf("read 1: %v", err)
		}
	})
	if got := stats.Requests(); got != 2 {
		t.Errorf("device requests = %d, want 2 (flight expired)", got)
	}
}

// TestDRRDelaysLeader: with a registered active peer and a backlogged
// device, a query more than one quantum ahead has its submissions
// delayed; with NoDRR (or no peer) it is never delayed.
func TestDRRDelaysLeader(t *testing.T) {
	elapsed := func(cfg Config, peers bool) int64 {
		ctx := exec.NewSim()
		dev, _ := memDevice(ctx, 4096)
		s := New(dev, Config{QuantumBytes: 64 * ssd.PageSize, NoCoalesce: true, NoDRR: cfg.NoDRR})
		s.Register(0, nil)
		if peers {
			s.Register(1, nil)
		}
		var end int64
		ctx.Run("main", func(p exec.Proc) {
			buf := make([]byte, 64*ssd.PageSize)
			for i := int64(0); i < 32; i++ {
				if _, err := s.ScheduleRead(p, 0, i*64, 64, buf); err != nil {
					t.Errorf("read %d: %v", i, err)
				}
			}
			end = p.Now()
		})
		return end
	}
	drr := elapsed(Config{}, true)
	noDRR := elapsed(Config{NoDRR: true}, true)
	solo := elapsed(Config{}, false)
	if drr <= noDRR {
		t.Errorf("leader with starved peer not delayed: drr=%dns noDRR=%dns", drr, noDRR)
	}
	if solo != noDRR {
		t.Errorf("solo query delayed: solo=%dns noDRR=%dns (work conservation)", solo, noDRR)
	}
}

// TestTableLookup: Table routes by device identity across arrays — a read
// through the scheduler For(dev) returns reads dev and no other device —
// and registers queries on every scheduler.
func TestTableLookup(t *testing.T) {
	ctx := exec.NewSim()
	data := make([]byte, 16*ssd.PageSize)
	statsA, statsB := metrics.NewIOStats(2), metrics.NewIOStats(2)
	arrA := ssd.NewMemArray(ctx, 0, 2, ssd.OptaneSSD, data, statsA, nil)
	arrB := ssd.NewMemArray(ctx, 0, 2, ssd.OptaneSSD, data, statsB, nil)
	tab := NewTable()
	tab.AddArray(arrA, Config{})
	tab.AddArray(arrB, Config{})
	if len(tab.All()) != 4 {
		t.Fatalf("table has %d schedulers, want 4", len(tab.All()))
	}
	seen := map[*Scheduler]bool{}
	ctx.Run("main", func(p exec.Proc) {
		buf := make([]byte, ssd.PageSize)
		for k, arr := range []*ssd.Array{arrA, arrB} {
			for d := 0; d < arr.NumDevices(); d++ {
				s := tab.For(arr.Device(d))
				if s == nil {
					t.Fatalf("no scheduler for array device %d", d)
				}
				if seen[s] {
					t.Error("two devices share a scheduler")
				}
				seen[s] = true
				before := [][]int64{statsA.DeviceBytes(), statsB.DeviceBytes()}
				if _, err := s.ScheduleRead(p, 0, 0, 1, buf); err != nil {
					t.Fatal(err)
				}
				after := [][]int64{statsA.DeviceBytes(), statsB.DeviceBytes()}
				for j := range after {
					for e := range after[j] {
						want := before[j][e]
						if j == k && e == d {
							want += ssd.PageSize
						}
						if after[j][e] != want {
							t.Errorf("a read through array %d device %d's scheduler moved array %d device %d by %d bytes",
								k, d, j, e, after[j][e]-before[j][e])
						}
					}
				}
			}
		}
	})
	// Re-adding is idempotent.
	tab.AddArray(arrA, Config{})
	if len(tab.All()) != 4 {
		t.Errorf("re-AddArray grew the table to %d", len(tab.All()))
	}
	if (*Table)(nil).For(arrA.Device(0)) != nil {
		t.Error("nil table lookup not nil")
	}
}

// TestFinishRetiresQuery: a finished query leaves no scheduler state
// behind — a long-running server that pushes thousands of queries through
// one device must not grow the query table (or the DRR clamp loop's work)
// without bound. Regression test: Finish used to mark the entry finished
// but keep it in the map forever.
func TestFinishRetiresQuery(t *testing.T) {
	ctx := exec.NewSim()
	dev, _ := memDevice(ctx, 64)
	s := New(dev, Config{})
	buf := make([]byte, ssd.PageSize)
	ctx.Run("main", func(p exec.Proc) {
		for q := int32(0); q < 200; q++ {
			s.Register(q, nil)
			if _, err := s.ScheduleRead(p, q, int64(q)%64, 1, buf); err != nil {
				t.Errorf("read %d: %v", q, err)
			}
			s.Finish(q)
		}
	})
	if got := s.Tracked(); got != 0 {
		t.Errorf("%d queries still tracked after all finished, want 0", got)
	}
}

// TestFinishLeavesPeersUnpaced: after its peer finishes, a query is solo
// and must never be DRR-delayed — the retired peer cannot linger in the
// active set as a phantom "most-starved" competitor.
func TestFinishLeavesPeersUnpaced(t *testing.T) {
	ctx := exec.NewSim()
	dev, _ := memDevice(ctx, 64)
	s := New(dev, Config{QuantumBytes: ssd.PageSize})
	s.Register(0, nil)
	s.Register(1, nil)
	s.Finish(1)
	buf := make([]byte, ssd.PageSize)
	ctx.Run("main", func(p exec.Proc) {
		// Far beyond one quantum of service: a phantom peer at 0 served-ns
		// would force delays here.
		for i := 0; i < 16; i++ {
			before := p.Now()
			if _, err := s.ScheduleRead(p, 0, int64(i), 1, buf); err != nil {
				t.Errorf("read %d: %v", i, err)
			}
			if waited := p.Now() - before; waited > 0 {
				t.Errorf("solo query delayed %dns by a finished peer", waited)
			}
		}
	})
}
