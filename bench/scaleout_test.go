package bench

import (
	"reflect"
	"sync"
	"testing"
)

// scaleoutDefault is the sweep at the default scale, run once for the
// gate, the shape checks and the committed-results comparison.
var scaleoutDefault = sync.OnceValue(func() []ScaleoutEntry { return ScaleoutSnapshot(DefaultScale) })

// TestScaleoutSnapshotGate: the reason to scale out at all — 4 machines'
// aggregate device bandwidth must clearly beat 1 machine on the IO-bound
// gate query, network charges included. This is the CI perf gate for the
// scale-out engine.
func TestScaleoutSnapshotGate(t *testing.T) {
	if testing.Short() {
		t.Skip("nine measured runs; skipped in -short mode")
	}
	entries := scaleoutDefault()
	var m1, m4 int64
	for _, e := range entries {
		if e.Query != ScaleoutGateQuery {
			continue
		}
		switch e.Machines {
		case 1:
			m1 = e.MakespanNs
		case 4:
			m4 = e.MakespanNs
		}
	}
	if m1 == 0 || m4 == 0 {
		t.Fatalf("suite missing %s entries: %+v", ScaleoutGateQuery, entries)
	}
	if speedup := float64(m1) / float64(m4); speedup < ScaleoutSpeedupFloor {
		t.Errorf("M=4 %s speedup %.2fx below the %.2fx floor (M=1 %dns, M=4 %dns) on %s",
			ScaleoutGateQuery, speedup, ScaleoutSpeedupFloor, m1, m4, ScaleoutGraph)
	}
}

// TestScaleoutSnapshotShape: every (query, machines) cell is present, the
// M=1 legs move no network traffic, the exchange-driven legs do, and the
// per-machine read split covers every machine.
func TestScaleoutSnapshotShape(t *testing.T) {
	if testing.Short() {
		t.Skip("nine measured runs; skipped in -short mode")
	}
	entries := scaleoutDefault()
	if want := len(ScaleoutMachineCounts) * len(scaleoutQueries); len(entries) != want {
		t.Fatalf("%d entries, want %d", len(entries), want)
	}
	for _, e := range entries {
		if len(e.PerMachineReadBytes) != e.Machines {
			t.Errorf("%s M=%d: per-machine split has %d entries", e.Query, e.Machines, len(e.PerMachineReadBytes))
		}
		for m, b := range e.PerMachineReadBytes {
			if b <= 0 {
				t.Errorf("%s M=%d: machine %d read nothing", e.Query, e.Machines, m)
			}
		}
		switch {
		case e.Machines == 1 && e.Net.Bytes != 0:
			t.Errorf("%s M=1 moved %d network bytes; no peers exist", e.Query, e.Net.Bytes)
		case e.Machines > 1 && e.Query == "bfs" && e.Net.Bytes == 0:
			t.Errorf("bfs M=%d exchanged no frontier deltas", e.Machines)
		}
		if e.MakespanNs <= 0 || e.ReadBytes <= 0 {
			t.Errorf("%s M=%d: empty measurement %+v", e.Query, e.Machines, e)
		}
	}
}

// TestScaleoutSnapshotDeterministic: the sweep is a pure function of the
// sim — a second run in one process must agree with the first on every
// field, network byte counts and the per-machine read split included.
func TestScaleoutSnapshotDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("eighteen measured runs; skipped in -short mode")
	}
	if a, b := ScaleoutSnapshot(smokeScale), ScaleoutSnapshot(smokeScale); !reflect.DeepEqual(a, b) {
		t.Errorf("same inputs, different measurements:\n%+v\nvs\n%+v", a, b)
	}
}
