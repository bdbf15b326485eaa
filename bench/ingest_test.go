package bench

import (
	"reflect"
	"sync"
	"testing"
)

// ingestDefault is the suite at the default scale, run once for the gates
// and the committed-results comparison.
var ingestDefault = sync.OnceValue(func() []IngestEntry { return IngestSnapshot(DefaultScale) })

// ingestEntry extracts one query's measurements after the given number of
// seals.
func ingestEntry(t *testing.T, entries []IngestEntry, query string, seals int) IngestEntry {
	t.Helper()
	for _, e := range entries {
		if e.Query == query && e.Seals == seals {
			if e.RepairNs == 0 || e.FullNs == 0 {
				t.Fatalf("%s after %d seals not measured: %+v", query, seals, e)
			}
			return e
		}
	}
	t.Fatalf("suite missing %s after %d seals: %+v", query, seals, entries)
	return IngestEntry{}
}

// TestIngestSnapshotGate: after a 1%-of-|E| insertion batch seals into a
// delta segment, repairing BFS from the affected frontier must beat a
// full recompute over the same overlay by IngestRepairSpeedupFloor. This
// is the CI perf gate for the incremental layer.
func TestIngestSnapshotGate(t *testing.T) {
	if testing.Short() {
		t.Skip("measured runs; skipped in -short mode")
	}
	bfs := ingestEntry(t, ingestDefault(), "bfs", 1)
	if float64(bfs.FullNs) < IngestRepairSpeedupFloor*float64(bfs.RepairNs) {
		t.Errorf("bfs repair %dns is only %.2fx faster than full recompute %dns (floor %.1fx)",
			bfs.RepairNs, float64(bfs.FullNs)/float64(bfs.RepairNs), bfs.FullNs, IngestRepairSpeedupFloor)
	}
	// WCC repair is reported, not gated, but must never lose outright.
	if wcc := ingestEntry(t, ingestDefault(), "wcc", 1); wcc.RepairNs > wcc.FullNs {
		t.Errorf("wcc repair %dns slower than full recompute %dns", wcc.RepairNs, wcc.FullNs)
	}
}

// TestIngestTieringGate: IngestSeals sealed batches, sized to leave as
// many segments as tiering ever does, must leave no more than
// IngestMaxSegments, and a full recompute over them must stay within
// IngestTieredSlowdownCeil of the same query on the compacted graph — the
// CI gate that segments do not pile up between compactions.
func TestIngestTieringGate(t *testing.T) {
	if testing.Short() {
		t.Skip("measured runs; skipped in -short mode")
	}
	for _, query := range []string{"bfs", "wcc"} {
		e := ingestEntry(t, ingestDefault(), query, IngestSeals)
		if e.Segments > IngestMaxSegments {
			t.Errorf("%s: %d segments live after %d seals (ceiling %d)", query, e.Segments, IngestSeals, IngestMaxSegments)
		}
		if e.CompactedNs == 0 || float64(e.FullNs) > IngestTieredSlowdownCeil*float64(e.CompactedNs) {
			t.Errorf("%s: full recompute over %d segments %dns, compacted %dns (ceiling %.2fx)",
				query, e.Segments, e.FullNs, e.CompactedNs, IngestTieredSlowdownCeil)
		}
	}
}

// TestIngestSnapshotDeterministic: the suite is a pure function of the
// sim, so two runs in one process measure identically to the nanosecond.
func TestIngestSnapshotDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("measured runs; skipped in -short mode")
	}
	if a, b := IngestSnapshot(smokeScale), IngestSnapshot(smokeScale); !reflect.DeepEqual(a, b) {
		t.Errorf("same inputs, different measurements:\n%+v\nvs\n%+v", a, b)
	}
}
