package ssd

import (
	"os"
	"path/filepath"
	"testing"

	"blaze/internal/exec"
)

// TestStripeViewOverRealFile: the device stack must serve pages from an
// actual on-disk file, the path the CLI tools use.
func TestStripeViewOverRealFile(t *testing.T) {
	dir := t.TempDir()
	data := pattern(9*PageSize + 123)
	path := filepath.Join(dir, "adj")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const numDev = 2
	ctx := exec.NewSim()
	devs := make([]*Device, numDev)
	for i := 0; i < numDev; i++ {
		devs[i] = NewDevice(ctx, i, OptaneSSD, &StripeView{
			Src: f, SrcSize: int64(len(data)), Dev: i, NumDev: numDev,
		}, nil, nil)
	}
	a := NewArray(devs)
	buf := make([]byte, PageSize)
	ctx.Run("main", func(p exec.Proc) {
		for logical := int64(0); logical < 10; logical++ {
			dev, local := locate(a, logical)
			if err := a.Device(dev).ReadPages(p, local, 1, buf); err != nil {
				t.Fatal(err)
			}
			off := logical * PageSize
			for i := 0; i < PageSize; i++ {
				want := byte(0)
				if off+int64(i) < int64(len(data)) {
					want = data[off+int64(i)]
				}
				if buf[i] != want {
					t.Fatalf("page %d byte %d: got %d want %d", logical, i, buf[i], want)
				}
			}
		}
	})
}

// TestSequentialDetectionPerDevice: interleaved requests from different
// streams on one device break sequential pricing; back-to-back requests
// restore it.
func TestSequentialDetectionPerDevice(t *testing.T) {
	ctx := exec.NewSim()
	data := make([]byte, 64*PageSize)
	d := NewDevice(ctx, 0, NANDSSD, &MemBacking{Data: data}, nil, nil)
	buf := make([]byte, PageSize)
	ctx.Run("main", func(p exec.Proc) {
		// Strictly sequential pages 0..9.
		t0 := p.Now()
		for pg := int64(0); pg < 10; pg++ {
			if err := d.ReadPages(p, pg, 1, buf); err != nil {
				t.Fatal(err)
			}
		}
		seqDur := p.Now() - t0
		// Alternate far-apart pages: every request random-priced.
		t1 := p.Now()
		for i := 0; i < 10; i++ {
			pg := int64(20 + (i%2)*30)
			if err := d.ReadPages(p, pg, 1, buf); err != nil {
				t.Fatal(err)
			}
		}
		randDur := p.Now() - t1
		// NAND's rand rate is ~3x slower than seq.
		if float64(randDur) < 2*float64(seqDur) {
			t.Errorf("random pattern (%d ns) not clearly slower than sequential (%d ns) on NAND", randDur, seqDur)
		}
	})
}

// TestReadPastBackingZeroFills: requests beyond the data must not fail and
// must return zeros (padding pages).
func TestReadPastBackingZeroFills(t *testing.T) {
	ctx := exec.NewSim()
	d := NewDevice(ctx, 0, OptaneSSD, &MemBacking{Data: pattern(PageSize)}, nil, nil)
	buf := make([]byte, 2*PageSize)
	ctx.Run("main", func(p exec.Proc) {
		if err := d.ReadPages(p, 0, 2, buf); err != nil {
			t.Fatal(err)
		}
	})
	for i := PageSize; i < 2*PageSize; i++ {
		if buf[i] != 0 {
			t.Fatal("padding page not zeroed")
		}
	}
}
