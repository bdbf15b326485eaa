package ssd

import (
	"io"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"blaze/internal/exec"
	"blaze/internal/metrics"
)

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 7)
	}
	return b
}

func TestMemBackingRoundTrip(t *testing.T) {
	data := pattern(3*PageSize + 100)
	m := &MemBacking{Data: data}
	if m.LocalPages() != 4 {
		t.Errorf("LocalPages = %d, want 4", m.LocalPages())
	}
	buf := make([]byte, PageSize)
	if err := m.ReadLocalPage(1, buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < PageSize; i++ {
		if buf[i] != data[PageSize+i] {
			t.Fatalf("byte %d mismatch", i)
		}
	}
	// Partial last page zero-fills.
	if err := m.ReadLocalPage(3, buf); err != nil {
		t.Fatal(err)
	}
	if buf[100] != 0 || buf[0] != data[3*PageSize] {
		t.Error("partial page not zero-filled correctly")
	}
	// Beyond end zero-fills entirely.
	if err := m.ReadLocalPage(9, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("page beyond end not zeroed")
		}
	}
}

func TestStripeViewMatchesLogicalLayout(t *testing.T) {
	const numDev = 4
	data := pattern(11 * PageSize)
	buf := make([]byte, PageSize)
	for dev := 0; dev < numDev; dev++ {
		v := &StripeView{Src: sliceReaderAt(data), SrcSize: int64(len(data)), Dev: dev, NumDev: numDev}
		for local := int64(0); local < v.LocalPages(); local++ {
			if err := v.ReadLocalPage(local, buf); err != nil {
				t.Fatal(err)
			}
			logical := local*numDev + int64(dev)
			off := logical * PageSize
			for i := 0; i < PageSize; i++ {
				want := byte(0)
				if off+int64(i) < int64(len(data)) {
					want = data[off+int64(i)]
				}
				if buf[i] != want {
					t.Fatalf("dev %d local %d byte %d: got %d want %d", dev, local, i, buf[i], want)
				}
			}
		}
	}
}

func TestStripeViewPageCounts(t *testing.T) {
	// 11 logical pages over 4 devices: devices 0,1,2 get 3, device 3 gets 2.
	data := pattern(11 * PageSize)
	want := []int64{3, 3, 3, 2}
	for dev := 0; dev < 4; dev++ {
		v := &StripeView{Src: sliceReaderAt(data), SrcSize: int64(len(data)), Dev: dev, NumDev: 4}
		if v.LocalPages() != want[dev] {
			t.Errorf("dev %d LocalPages = %d, want %d", dev, v.LocalPages(), want[dev])
		}
	}
}

// locate is the array's striping rule (§IV-E): logical page i lives on
// device i%D at local page i/D.
func locate(a *Array, logical int64) (dev int, local int64) {
	n := int64(a.NumDevices())
	return int(logical % n), logical / n
}

// TestArrayMapRoundTrip: Logical inverts the striping rule.
func TestArrayMapRoundTrip(t *testing.T) {
	f := func(page uint32, ndev uint8) bool {
		n := int(ndev%8) + 1
		s := exec.NewSim()
		devs := make([]*Device, n)
		for i := range devs {
			devs[i] = NewDevice(s, i, OptaneSSD, &MemBacking{}, nil, nil)
		}
		a := NewArray(devs)
		lp := int64(page)
		dev, local := locate(a, lp)
		return a.Logical(dev, local) == lp
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDeviceBandwidthRandom verifies that random 4 kB reads achieve the
// profile's random rate in virtual time.
func TestDeviceBandwidthRandom(t *testing.T) {
	for _, prof := range Profiles() {
		prof := prof
		s := exec.NewSim()
		const pages = 1000
		data := make([]byte, pages*PageSize)
		var elapsed int64
		s.Run("main", func(p exec.Proc) {
			d := NewDevice(s, 0, prof, &MemBacking{Data: data}, nil, nil)
			buf := make([]byte, PageSize)
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < pages; i++ {
				// Non-sequential access pattern: random pages.
				if err := d.ReadPages(p, int64(rng.Intn(pages)), 1, buf); err != nil {
					t.Fatal(err)
				}
			}
			elapsed = p.Now()
		})
		gotBW := float64(pages*PageSize) / (float64(elapsed) / 1e9)
		if math.Abs(gotBW-prof.RandBytesPerSec)/prof.RandBytesPerSec > 0.02 {
			t.Errorf("%s: random BW = %.0f, want %.0f", prof.Name, gotBW, prof.RandBytesPerSec)
		}
	}
}

// TestDeviceBandwidthSequential verifies that back-to-back contiguous reads
// achieve the sequential rate.
func TestDeviceBandwidthSequential(t *testing.T) {
	prof := NANDSSD
	s := exec.NewSim()
	const pages = 4096
	data := make([]byte, pages*PageSize)
	var elapsed int64
	s.Run("main", func(p exec.Proc) {
		d := NewDevice(s, 0, prof, &MemBacking{Data: data}, nil, nil)
		buf := make([]byte, 4*PageSize)
		for pg := int64(0); pg < pages; pg += 4 {
			if err := d.ReadPages(p, pg, 4, buf); err != nil {
				t.Fatal(err)
			}
		}
		elapsed = p.Now()
	})
	gotBW := float64(pages*PageSize) / (float64(elapsed) / 1e9)
	// First page of the first request is charged at the random rate;
	// everything after is sequential, so expect within a few percent.
	if math.Abs(gotBW-prof.SeqBytesPerSec)/prof.SeqBytesPerSec > 0.05 {
		t.Errorf("sequential BW = %.0f, want ~%.0f", gotBW, prof.SeqBytesPerSec)
	}
}

// TestNANDGapLargerThanOptane reproduces Table I's qualitative claim: the
// random/sequential gap is large on NAND and small on Optane.
func TestNANDGapLargerThanOptane(t *testing.T) {
	gap := func(pr Profile) float64 { return pr.RandBytesPerSec / pr.SeqBytesPerSec }
	if gap(NANDSSD) > 0.5 {
		t.Errorf("NAND rand/seq ratio = %.2f, want < 0.5", gap(NANDSSD))
	}
	if gap(OptaneSSD) < 0.9 {
		t.Errorf("Optane rand/seq ratio = %.2f, want > 0.9", gap(OptaneSSD))
	}
}

// TestScheduleReadOverlaps verifies AIO semantics: submissions do not block
// the submitting proc, and the device horizon reflects queued work.
func TestScheduleReadOverlaps(t *testing.T) {
	s := exec.NewSim()
	data := make([]byte, 100*PageSize)
	s.Run("main", func(p exec.Proc) {
		d := NewDevice(s, 0, OptaneSSD, &MemBacking{Data: data}, nil, nil)
		buf := make([]byte, PageSize)
		var last int64
		for i := int64(0); i < 10; i++ {
			done, err := d.ScheduleRead(p, i*3, 1, buf) // non-contiguous
			if err != nil {
				t.Fatal(err)
			}
			if done <= last {
				t.Errorf("completion %d not after previous %d", done, last)
			}
			last = done
		}
		if p.Now() != 0 {
			t.Errorf("submitting proc advanced to %d, want 0", p.Now())
		}
		if d.BusyUntil() != last {
			t.Errorf("BusyUntil = %d, want %d", d.BusyUntil(), last)
		}
	})
}

func TestDeviceStatsAndTimeline(t *testing.T) {
	s := exec.NewSim()
	stats := metrics.NewIOStats(1)
	tl := metrics.NewTimeline(1e6)
	data := make([]byte, 64*PageSize)
	s.Run("main", func(p exec.Proc) {
		d := NewDevice(s, 0, OptaneSSD, &MemBacking{Data: data}, stats, tl)
		buf := make([]byte, 2*PageSize)
		for i := 0; i < 8; i++ {
			if err := d.ReadPages(p, int64(i*5), 2, buf); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got := stats.TotalBytes(); got != 16*PageSize {
		t.Errorf("TotalBytes = %d, want %d", got, 16*PageSize)
	}
	if got := stats.Requests(); got != 8 {
		t.Errorf("Requests = %d, want 8", got)
	}
	if got := stats.PagesRead(); got != 16 {
		t.Errorf("PagesRead = %d, want 16", got)
	}
	var sum float64
	for _, v := range tl.Series() {
		sum += v
	}
	if sum == 0 {
		t.Error("timeline recorded no bandwidth")
	}
}

func TestProfileScale(t *testing.T) {
	p := OptaneSSD.Scale(0.5)
	if p.SeqBytesPerSec != OptaneSSD.SeqBytesPerSec/2 || p.RandBytesPerSec != OptaneSSD.RandBytesPerSec/2 {
		t.Error("Scale did not halve rates")
	}
}

func TestMemArrayStripes(t *testing.T) {
	s := exec.NewSim()
	data := pattern(16 * PageSize)
	a := NewMemArray(s, 0, 4, OptaneSSD, data, nil, nil)
	if a.NumDevices() != 4 {
		t.Fatalf("array has %d devices, want 4", a.NumDevices())
	}
	s.Run("main", func(p exec.Proc) {
		buf := make([]byte, PageSize)
		for logical := int64(0); logical < 16; logical++ {
			dev, local := locate(a, logical)
			if err := a.Device(dev).ReadPages(p, local, 1, buf); err != nil {
				t.Fatal(err)
			}
			if buf[0] != data[logical*PageSize] {
				t.Errorf("logical page %d: wrong data", logical)
			}
		}
	})
}

// A second array built with a first device ID takes the IDs after the
// first array's: reads land on their own IOStats slots, and WrapBacking
// sees the global ID while the stripe index stays local.
func TestMemArrayFirstDeviceID(t *testing.T) {
	s := exec.NewSim()
	data := pattern(8 * PageSize)
	stats := metrics.NewIOStats(4)
	var wrapped []int
	wrap := DeviceOptions{WrapBacking: func(dev int, b Backing) Backing {
		wrapped = append(wrapped, dev)
		return b
	}}
	a := NewMemArray(s, 2, 2, OptaneSSD, data, stats, nil, wrap)
	if a.Device(0).ID != 2 || a.Device(1).ID != 3 {
		t.Fatalf("device IDs = %d, %d; want 2, 3", a.Device(0).ID, a.Device(1).ID)
	}
	if len(wrapped) != 2 || wrapped[0] != 2 || wrapped[1] != 3 {
		t.Errorf("WrapBacking saw devices %v, want [2 3]", wrapped)
	}
	s.Run("main", func(p exec.Proc) {
		buf := make([]byte, PageSize)
		for logical := int64(0); logical < 8; logical++ {
			dev, local := locate(a, logical)
			if err := a.Device(dev).ReadPages(p, local, 1, buf); err != nil {
				t.Fatal(err)
			}
			if buf[0] != data[logical*PageSize] {
				t.Errorf("logical page %d: wrong data", logical)
			}
		}
	})
	if got := stats.DeviceBytes(); got[0] != 0 || got[1] != 0 || got[2] != 4*PageSize || got[3] != 4*PageSize {
		t.Errorf("per-device bytes = %v, want reads on devices 2 and 3 only", got)
	}
}

// TestSliceReaderAtContract: the io.ReaderAt contract requires n < len(p)
// to come with a non-nil error; a tail read that returned a short count
// with a nil error would silently truncate the last stripe page.
func TestSliceReaderAtContract(t *testing.T) {
	b := sliceReaderAt(make([]byte, 10))
	for i := range b {
		b[i] = byte(i)
	}
	buf := make([]byte, 8)
	if n, err := b.ReadAt(buf, 0); n != 8 || err != nil {
		t.Errorf("full read: n=%d err=%v, want 8, nil", n, err)
	}
	// Tail read: only 2 of 8 bytes exist — the short count must be
	// reported as io.EOF, not silence.
	if n, err := b.ReadAt(buf, 8); n != 2 || err != io.EOF {
		t.Errorf("tail read: n=%d err=%v, want 2, io.EOF", n, err)
	} else if buf[0] != 8 || buf[1] != 9 {
		t.Errorf("tail read bytes = %v", buf[:2])
	}
	if n, err := b.ReadAt(buf, 10); n != 0 || err != io.EOF {
		t.Errorf("past-end read: n=%d err=%v, want 0, io.EOF", n, err)
	}
	if _, err := b.ReadAt(buf, -1); err == nil {
		t.Error("negative offset must error")
	}
}
