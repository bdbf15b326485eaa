package bench

import (
	"reflect"
	"testing"
)

// ingestNs extracts the (repair, full) makespans for one query.
func ingestNs(t *testing.T, entries []IngestEntry, query string) (repair, full int64) {
	t.Helper()
	for _, e := range entries {
		if e.Query == query {
			repair, full = e.RepairNs, e.FullNs
		}
	}
	if repair == 0 || full == 0 {
		t.Fatalf("suite missing %s measurements: %+v", query, entries)
	}
	return repair, full
}

// TestIngestSnapshotGate: after a 1%-of-|E| insertion batch seals into a
// delta segment, repairing BFS from the affected frontier must beat a
// full recompute over the same overlay by IngestRepairSpeedupFloor. This
// is the CI perf gate for the incremental layer.
func TestIngestSnapshotGate(t *testing.T) {
	if testing.Short() {
		t.Skip("measured runs; skipped in -short mode")
	}
	entries := IngestSnapshot(DefaultScale)
	repair, full := ingestNs(t, entries, "bfs")
	if float64(full) < IngestRepairSpeedupFloor*float64(repair) {
		t.Errorf("bfs repair %dns is only %.2fx faster than full recompute %dns (floor %.1fx)",
			repair, float64(full)/float64(repair), full, IngestRepairSpeedupFloor)
	}
	// WCC repair is reported, not gated, but must never lose outright.
	repair, full = ingestNs(t, entries, "wcc")
	if repair > full {
		t.Errorf("wcc repair %dns slower than full recompute %dns", repair, full)
	}
}

// TestIngestSnapshotDeterministic: the suite is a pure function of the
// sim, so two runs measure identically to the nanosecond.
func TestIngestSnapshotDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("measured runs; skipped in -short mode")
	}
	a, b := IngestSnapshot(DefaultScale), IngestSnapshot(DefaultScale)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same inputs, different measurements:\n%+v\nvs\n%+v", a, b)
	}
}
