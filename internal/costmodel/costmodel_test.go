package costmodel

import "testing"

func TestDefaultsAreOrdered(t *testing.T) {
	m := Default()
	// The model's structural assumptions: sequential work is cheap,
	// scattered updates expensive, contention dominant.
	if m.EdgeScan >= m.GatherUpdate {
		t.Error("edge scan should be far cheaper than a scattered update")
	}
	if m.GatherUpdate > m.RandomUpdate || m.RandomUpdate > m.MsgProcess {
		t.Error("binned gather <= inline update <= message processing expected")
	}
	if m.HotContention <= m.AtomicExtra {
		t.Error("hot-line contention should dwarf an uncontended CAS")
	}
}

func TestAtomicUpdate(t *testing.T) {
	m := Default()
	for _, tc := range []struct {
		name     string
		base     int64
		locality float64
		hotFrac  float64
		procs    int
		want     int64
	}{
		{"one proc pays no contention", 100, 0, 0.5, 1, 100 + m.AtomicExtra},
		{"no hot edges", 100, 0, 0, 8, 100 + m.AtomicExtra},
		{"contended", 100, 0, 0.5, 2, 100 + m.AtomicExtra + m.HotContention/2},
		{"locality discounts the update, not the CAS", 100, 1, 0, 4, m.Update(100, 1) + m.AtomicExtra},
		{"hot share truncates", 18, 0.1, 0.013, 16, m.Update(18, 0.1) + m.AtomicExtra + int64(0.013*float64(m.HotContention))},
	} {
		if got := m.AtomicUpdate(tc.base, tc.locality, tc.hotFrac, tc.procs); got != tc.want {
			t.Errorf("%s: AtomicUpdate = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestUpdateLocalityDiscount(t *testing.T) {
	m := Default()
	full := m.Update(100, 0)
	if full != 100 {
		t.Errorf("zero-locality update = %d, want 100", full)
	}
	high := m.Update(100, 1)
	if high >= full {
		t.Error("high locality must discount the update")
	}
	if got := m.Update(100, 1.5); got < 0 {
		t.Errorf("over-unity locality produced negative cost %d", got)
	}
}

func TestIOSubmitGrowsWithSize(t *testing.T) {
	m := Default()
	if m.IOSubmit(32) <= m.IOSubmit(1) {
		t.Error("large IO submission must cost more (Graphene's pathology)")
	}
	if m.IOSubmit(1) != m.IOSubmitBase+m.IOSubmitPerPage {
		t.Error("single-page submission formula wrong")
	}
}
