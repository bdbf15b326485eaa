package ssd

import (
	"sync"
	"testing"

	"blaze/internal/exec"
	"blaze/internal/metrics"
)

// injectedErr is a minimal error carrying the Transient marker.
type injectedErr struct{ transient bool }

func (e *injectedErr) Error() string   { return "injected read error" }
func (e *injectedErr) Transient() bool { return e.transient }

// faultyBacking fails the first `failures` reads (forever if negative),
// then serves zero pages. Safe for concurrent procs.
type faultyBacking struct {
	mu        sync.Mutex
	failures  int
	transient bool
	reads     int
}

func (b *faultyBacking) ReadLocalPage(local int64, buf []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.reads++
	if b.failures != 0 {
		if b.failures > 0 {
			b.failures--
		}
		return &injectedErr{transient: b.transient}
	}
	return nil
}

func (b *faultyBacking) LocalPages() int64 { return 64 }

// TestDeviceRetriesTransient: transient failures within the budget are
// absorbed, counted, and their backoff is charged in model time.
func TestDeviceRetriesTransient(t *testing.T) {
	s := exec.NewSim()
	stats := metrics.NewIOStats(1)
	b := &faultyBacking{failures: 2, transient: true}
	s.Run("main", func(p exec.Proc) {
		d := DeviceOptions{Retry: &RetryPolicy{MaxRetries: 3, BackoffNs: 1000}}.Build(s, 0, OptaneSSD, b, stats, nil)
		buf := make([]byte, PageSize)
		if err := d.ReadPages(p, 0, 1, buf); err != nil {
			t.Fatalf("read within retry budget failed: %v", err)
		}
		// Two backoffs (1000 then 2000 ns) plus the transfer itself.
		if p.Now() < 3000 {
			t.Errorf("clock after retries = %d ns, want >= 3000 (backoff charged)", p.Now())
		}
	})
	if got := stats.Retries(); got != 2 {
		t.Errorf("Retries = %d, want 2", got)
	}
	if got := stats.ReadErrors(); got != 0 {
		t.Errorf("ReadErrors = %d, want 0", got)
	}
	if b.reads != 3 {
		t.Errorf("backing saw %d attempts, want 3", b.reads)
	}
}

// TestDeviceTransientBudgetExhausted: a transient error that persists past
// MaxRetries surfaces as an unrecoverable error.
func TestDeviceTransientBudgetExhausted(t *testing.T) {
	s := exec.NewSim()
	stats := metrics.NewIOStats(1)
	b := &faultyBacking{failures: -1, transient: true}
	s.Run("main", func(p exec.Proc) {
		d := DeviceOptions{Retry: &RetryPolicy{MaxRetries: 3, BackoffNs: 100}}.Build(s, 0, OptaneSSD, b, stats, nil)
		if err := d.ReadPages(p, 0, 1, make([]byte, PageSize)); err == nil {
			t.Fatal("persistent transient error not surfaced")
		}
	})
	if got := stats.Retries(); got != 3 {
		t.Errorf("Retries = %d, want 3 (the full budget)", got)
	}
	if got := stats.ReadErrors(); got != 1 {
		t.Errorf("ReadErrors = %d, want 1", got)
	}
	if b.reads != 4 {
		t.Errorf("backing saw %d attempts, want 4 (1 + MaxRetries)", b.reads)
	}
}

// onceFaultyBacking fails each page's first read with a transient error,
// then serves it. Safe for concurrent procs.
type onceFaultyBacking struct {
	mu     sync.Mutex
	failed map[int64]bool
	reads  int
}

func (b *onceFaultyBacking) ReadLocalPage(local int64, buf []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.reads++
	if !b.failed[local] {
		b.failed[local] = true
		return &injectedErr{transient: true}
	}
	return nil
}

func (b *onceFaultyBacking) LocalPages() int64 { return 64 }

// TestDeviceRetriesEachPageOfARun: a multi-page read resumes at the page
// that failed, and the retry budget is per page, so a run whose every page
// fails once is read with one retry each, and no page is read after it was
// served.
func TestDeviceRetriesEachPageOfARun(t *testing.T) {
	s := exec.NewSim()
	stats := metrics.NewIOStats(1)
	b := &onceFaultyBacking{failed: map[int64]bool{}}
	s.Run("main", func(p exec.Proc) {
		d := DeviceOptions{Retry: &RetryPolicy{MaxRetries: 1, BackoffNs: 100}}.Build(s, 0, OptaneSSD, b, stats, nil)
		if err := d.ReadPages(p, 0, 4, make([]byte, 4*PageSize)); err != nil {
			t.Fatalf("a run of once-faulty pages failed: %v", err)
		}
	})
	if got := stats.Retries(); got != 4 {
		t.Errorf("Retries = %d, want 4 (one a page)", got)
	}
	if b.reads != 8 {
		t.Errorf("backing saw %d reads, want 8 (two a page)", b.reads)
	}
}

// TestDevicePermanentNoRetry: non-transient errors are never retried.
func TestDevicePermanentNoRetry(t *testing.T) {
	s := exec.NewSim()
	stats := metrics.NewIOStats(1)
	b := &faultyBacking{failures: -1, transient: false}
	s.Run("main", func(p exec.Proc) {
		d := NewDevice(s, 0, OptaneSSD, b, stats, nil)
		if _, err := d.ScheduleRead(p, 0, 1, make([]byte, PageSize)); err == nil {
			t.Fatal("permanent error not surfaced")
		}
		if p.Now() != 0 {
			t.Errorf("failed read advanced the clock to %d", p.Now())
		}
	})
	if got := stats.Retries(); got != 0 {
		t.Errorf("Retries = %d, want 0", got)
	}
	if got := stats.ReadErrors(); got != 1 {
		t.Errorf("ReadErrors = %d, want 1", got)
	}
	if b.reads != 1 {
		t.Errorf("backing saw %d attempts, want 1", b.reads)
	}
}

// TestDeviceSharedAcrossProcs is the -race regression for the device's
// sequential-detection state (lastEnd): many real procs hammering one
// shared device must not race.
func TestDeviceSharedAcrossProcs(t *testing.T) {
	r := exec.NewReal()
	// Scale the profile up so pacing keeps the test fast.
	prof := OptaneSSD.Scale(100)
	data := make([]byte, 64*PageSize)
	r.Run("main", func(p exec.Proc) {
		d := NewDevice(r, 0, prof, &MemBacking{Data: data}, nil, nil)
		wg := r.NewWaitGroup()
		const procs, reads = 8, 64
		wg.Add(procs)
		for i := 0; i < procs; i++ {
			i := i
			r.Go("reader", func(rp exec.Proc) {
				defer wg.Done(rp)
				buf := make([]byte, PageSize)
				for j := 0; j < reads; j++ {
					if err := d.ReadPages(rp, int64((i*reads+j)%64), 1, buf); err != nil {
						t.Errorf("reader %d: %v", i, err)
						return
					}
				}
			})
		}
		wg.Wait(p)
	})
}

// TestDeviceOptionsBuild: WrapBacking intercepts reads and Retry overrides
// the default policy; merged options compose last-wins.
func TestDeviceOptionsBuild(t *testing.T) {
	s := exec.NewSim()
	stats := metrics.NewIOStats(1)
	b := &faultyBacking{failures: -1, transient: true}
	rp := RetryPolicy{MaxRetries: 1, BackoffNs: 10}
	o := MergeDeviceOptions([]DeviceOptions{
		{WrapBacking: func(dev int, inner Backing) Backing { return inner }},
		{Retry: &rp},
	})
	if o.WrapBacking == nil || o.Retry == nil {
		t.Fatal("MergeDeviceOptions dropped a field")
	}
	s.Run("main", func(p exec.Proc) {
		d := o.Build(s, 0, OptaneSSD, b, stats, nil)
		if err := d.ReadPages(p, 0, 1, make([]byte, PageSize)); err == nil {
			t.Fatal("expected error through wrapped backing")
		}
	})
	if got := stats.Retries(); got != 1 {
		t.Errorf("Retries = %d, want 1 (overridden budget)", got)
	}
}
