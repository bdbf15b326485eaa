package metrics

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestTimelineBuckets(t *testing.T) {
	tl := NewTimeline(1000) // 1us buckets
	sh := tl.Shard(0)
	sh.Add(0, 500)
	sh.Add(999, 500)
	sh.Add(1000, 1000)
	sh.Add(5500, 2000)
	s := tl.Series()
	if len(s) != 6 {
		t.Fatalf("series length %d, want 6", len(s))
	}
	// Bucket 0 holds 1000 bytes over 1us = 1e9 B/s.
	if s[0] != 1e9 {
		t.Errorf("bucket 0 = %g, want 1e9", s[0])
	}
	if s[1] != 1e9 {
		t.Errorf("bucket 1 = %g, want 1e9", s[1])
	}
	if s[2] != 0 || s[3] != 0 || s[4] != 0 {
		t.Error("empty buckets nonzero")
	}
	if s[5] != 2e9 {
		t.Errorf("bucket 5 = %g, want 2e9", s[5])
	}
}

func TestTimelineNegativeClamped(t *testing.T) {
	tl := NewTimeline(1000)
	tl.Shard(0).Add(-5, 100) // must not panic
	if tl.Series()[0] == 0 {
		t.Error("negative timestamp dropped instead of clamped")
	}
}

func TestIdleFraction(t *testing.T) {
	tl := NewTimeline(1000)
	sh := tl.Shard(0)
	sh.Add(0, 1000)    // busy
	sh.Add(3000, 1000) // busy; buckets 1,2 idle
	got := tl.IdleFraction(0.5e9)
	if got != 0.5 {
		t.Errorf("IdleFraction = %g, want 0.5 (2 idle of 4)", got)
	}
	empty := NewTimeline(1000)
	if empty.IdleFraction(1) != 1 {
		t.Error("empty timeline should be fully idle")
	}
}

func TestIOStatsEpochs(t *testing.T) {
	s := NewIOStats(3)
	s.AddRead(0, 4096, 1)
	s.AddRead(2, 8192, 2)
	ep := s.EndEpoch(nil)
	if ep[0] != 4096 || ep[1] != 0 || ep[2] != 8192 {
		t.Errorf("epoch = %v", ep)
	}
	// Epoch counters reset, totals persist.
	ep2 := s.EndEpoch(nil)
	for _, b := range ep2 {
		if b != 0 {
			t.Error("epoch not reset")
		}
	}
	if s.TotalBytes() != 12288 {
		t.Errorf("TotalBytes = %d", s.TotalBytes())
	}
	if s.Requests() != 2 || s.PagesRead() != 3 {
		t.Errorf("requests/pages = %d/%d", s.Requests(), s.PagesRead())
	}
	db := s.DeviceBytes()
	if db[0] != 4096 || db[2] != 8192 {
		t.Errorf("DeviceBytes = %v", db)
	}
}

func TestIOStatsConcurrent(t *testing.T) {
	s := NewIOStats(4)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(dev int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				s.AddRead(dev%4, 4096, 1)
			}
		}(i)
	}
	wg.Wait()
	if s.TotalBytes() != 8*1000*4096 {
		t.Errorf("TotalBytes = %d", s.TotalBytes())
	}
}

func TestSkew(t *testing.T) {
	if Skew([]int64{5, 1, 9, 3}) != 8 {
		t.Error("Skew of {5,1,9,3} != 8")
	}
	if Skew(nil) != 0 || Skew([]int64{7}) != 0 {
		t.Error("degenerate skews wrong")
	}
}

func TestSkewProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		// Skew's domain is byte counts: non-negative, bounded.
		xs := make([]int64, len(raw))
		for i, r := range raw {
			xs[i] = int64(r)
		}
		s := Skew(xs)
		if len(xs) == 0 {
			return s == 0
		}
		// Skew is non-negative and zero iff all equal.
		if s < 0 {
			return false
		}
		allEq := true
		for _, x := range xs {
			if x != xs[0] {
				allEq = false
			}
		}
		return (s == 0) == allEq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMemAccount(t *testing.T) {
	m := NewMemAccount()
	m.Set("a", 100)
	m.Set("b", 50)
	m.Add("a", 25)
	m.Set("b", 10) // replace
	if m.Total() != 135 {
		t.Errorf("Total = %d, want 135", m.Total())
	}
	items := m.Items()
	if len(items) != 2 || items[0].Name != "a" || items[0].Bytes != 125 {
		t.Errorf("Items = %v", items)
	}
}
