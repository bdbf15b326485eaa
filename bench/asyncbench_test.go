package bench

import (
	"reflect"
	"testing"
)

// TestAsyncSnapshotGate: on the high-diameter crawl the barrier-free
// driver must not lose to barrier rounds on BFS — the workload whose
// hundreds of levels exist to amortize. This is the CI perf gate for
// the async driver.
func TestAsyncSnapshotGate(t *testing.T) {
	if testing.Short() {
		t.Skip("eighteen measured runs; skipped in -short mode")
	}
	entries := AsyncSnapshot(DefaultScale)
	var blazeNs, asyncNs int64
	for _, e := range entries {
		if e.Query == "bfs" && e.CacheDiv == 0 {
			blazeNs, asyncNs = e.BlazeNs, e.AsyncNs
		}
	}
	if blazeNs == 0 || asyncNs == 0 {
		t.Fatalf("suite missing the no-cache bfs pair: %+v", entries)
	}
	if float64(asyncNs) > AsyncBFSGate*float64(blazeNs) {
		t.Errorf("async bfs makespan %dns exceeds %.2fx blaze (%dns) on %s",
			asyncNs, AsyncBFSGate, blazeNs, AsyncGraph)
	}
}

// TestAsyncSnapshotDeterministic: the suite is a pure function of the
// sim, so two runs agree to the nanosecond and the byte — below the
// rounding of the committed CSV that TestExtExperimentsDeterministic
// compares.
func TestAsyncSnapshotDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("thirty-six measured runs; skipped in -short mode")
	}
	a, b := AsyncSnapshot(DefaultScale), AsyncSnapshot(DefaultScale)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same inputs, different measurements:\n%+v\nvs\n%+v", a, b)
	}
}
