package bench

import "testing"

// TestMultiQueryScalingFloor is the CI concurrent-session gate: on the
// warmed repeat-BFS workload, four concurrent replicas sharing one session
// must deliver at least 1.5x the aggregate throughput of running them one
// at a time. Falling under the floor means the shared IO layer stopped
// paying for itself (coalescing broken, DRR over-throttling, or the quota
// evicting the shared working set).
func TestMultiQueryScalingFloor(t *testing.T) {
	d := MustLoad("r2", DefaultScale)
	base := MultiQueryRun(d, "blaze", "bfs", 1)
	q4 := MultiQueryRun(d, "blaze", "bfs", 4)
	if base.MakespanNs == 0 || q4.MakespanNs == 0 {
		t.Fatalf("empty makespans: Q=1 %dns, Q=4 %dns", base.MakespanNs, q4.MakespanNs)
	}
	scale := 4 * float64(base.MakespanNs) / float64(q4.MakespanNs)
	if scale < 1.5 {
		t.Errorf("Q=4 aggregate throughput %.2fx under floor 1.5x (Q=1 %dns, Q=4 %dns)",
			scale, base.MakespanNs, q4.MakespanNs)
	}
	if q4.CoalescedPages == 0 {
		t.Error("four identical concurrent traversals coalesced no reads")
	}
}

// TestMultiQueryCoalescingSavesReads: two concurrent BFS replicas against
// one session must issue measurably fewer device reads than two serial
// runs of the same query — the ISSUE's headline acceptance criterion.
func TestMultiQueryCoalescingSavesReads(t *testing.T) {
	d := MustLoad("r2", DefaultScale)
	q1 := MultiQueryRun(d, "blaze", "bfs", 1)
	q2 := MultiQueryRun(d, "blaze", "bfs", 2)
	if q1.ReadBytes == 0 {
		t.Skip("warmed single BFS reads nothing from the device; coalescing unmeasurable")
	}
	if q2.ReadBytes >= 2*q1.ReadBytes {
		t.Errorf("2 concurrent BFS read %d bytes, 2 serial read %d — sharing saved nothing",
			q2.ReadBytes, 2*q1.ReadBytes)
	}
}

// TestMultiQuerySnapshotShape runs the real suite end to end at the
// default scale and checks the invariants the CI gate relies on: every
// (engine, query) sweep has a Q=1 anchor at scale 1.0, scale grows with Q
// past the 1.5x floor at Q=4, and concurrency coalesces reads.
func TestMultiQuerySnapshotShape(t *testing.T) {
	if testing.Short() {
		t.Skip("eight measured runs; skipped in -short mode")
	}
	entries := MultiQuerySnapshot(DefaultScale)
	if len(entries) != 2*len(MultiQueryCounts) {
		t.Fatalf("got %d entries, want %d ({bfs,spmv} x Q sweep)", len(entries), 2*len(MultiQueryCounts))
	}
	for _, e := range entries {
		if e.Q == 1 {
			if e.AggThroughputScale != 1.0 {
				t.Errorf("%s/%s Q=1 scale %.3f, want 1.0", e.Engine, e.Query, e.AggThroughputScale)
			}
			continue
		}
		if e.AggThroughputScale <= 1.0 {
			t.Errorf("%s/%s Q=%d aggregate scale %.2fx — concurrency slower than serial",
				e.Engine, e.Query, e.Q, e.AggThroughputScale)
		}
		if e.Q >= 4 && e.AggThroughputScale < 1.5 {
			t.Errorf("%s/%s Q=%d aggregate scale %.2fx under CI floor 1.5x",
				e.Engine, e.Query, e.Q, e.AggThroughputScale)
		}
		if e.CoalescedPages == 0 && e.ReadBytes > 0 {
			t.Errorf("%s/%s Q=%d read %d bytes but coalesced nothing",
				e.Engine, e.Query, e.Q, e.ReadBytes)
		}
	}
}
