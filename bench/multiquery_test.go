package bench

import "testing"

// multiQueryPoint is one (engine, query, Q) measurement of the suite.
type multiQueryPoint struct {
	engine, query string
	q             int
}

// multiQueryPoints are the points of the suite.
var multiQueryPoints = func() (ps []multiQueryPoint) {
	for _, w := range multiQueryWorkloads {
		for _, q := range MultiQueryCounts {
			ps = append(ps, multiQueryPoint{w[0], w[1], q})
		}
	}
	return ps
}()

// multiQueryAt holds each point of the suite at the default scale.
var multiQueryAt = memoAt(multiQueryPoints, func(p multiQueryPoint) MultiQueryEntry {
	return MultiQueryRun(MustLoad("r2", DefaultScale), p.engine, p.query, p.q)
})

// multiQueryDefault is MultiQuerySnapshot(DefaultScale) over multiQueryAt.
func multiQueryDefault() []MultiQueryEntry {
	return multiQuerySweep(func(engine, query string, q int) MultiQueryEntry {
		return multiQueryAt[multiQueryPoint{engine, query, q}]()
	})
}

// TestMultiQueryScalingFloor is the CI concurrent-session gate: on the
// warmed repeat-BFS workload, four concurrent replicas sharing one session
// must deliver at least 1.5x the aggregate throughput of running them one
// at a time. Falling under the floor means the shared IO layer stopped
// paying for itself (coalescing broken, DRR over-throttling, or the quota
// evicting the shared working set).
func TestMultiQueryScalingFloor(t *testing.T) {
	base := multiQueryAt[multiQueryPoint{"blaze", "bfs", 1}]()
	q4 := multiQueryAt[multiQueryPoint{"blaze", "bfs", 4}]()
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
// runs of the same query — what sharing one session is for.
func TestMultiQueryCoalescingSavesReads(t *testing.T) {
	q1 := multiQueryAt[multiQueryPoint{"blaze", "bfs", 1}]()
	q2 := multiQueryAt[multiQueryPoint{"blaze", "bfs", 2}]()
	if q1.ReadBytes == 0 {
		t.Skip("warmed single BFS reads nothing from the device; coalescing unmeasurable")
	}
	if q2.ReadBytes >= 2*q1.ReadBytes {
		t.Errorf("2 concurrent BFS read %d bytes, 2 serial read %d — sharing saved nothing",
			q2.ReadBytes, 2*q1.ReadBytes)
	}
}

// TestMultiQuerySnapshotShape checks the invariants the CI gate relies on
// across the whole suite: every (engine, query) sweep has a Q=1 anchor at
// scale 1.0, scale grows with Q past the 1.5x floor at Q=4, and
// concurrency coalesces reads.
func TestMultiQuerySnapshotShape(t *testing.T) {
	if testing.Short() {
		t.Skip("the suite's other five points; skipped in -short mode")
	}
	for _, e := range multiQueryDefault() {
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
