package bench

import "testing"

// pagecacheAt holds each budget's leg of the suite at the default scale.
var pagecacheAt = memoAt(pagecacheBudgets, func(adjs float64) CacheSnapshotEntry {
	return pagecacheRun(MustLoad("r2", DefaultScale), adjs)
})

// TestRepeatScanHitRateFloor is the CI hit-rate sanity gate: on the
// repeat-scan workload (dense PageRank iterations with a cache that holds
// the whole adjacency, with headroom for shard imbalance) the cache must
// serve at least RepeatScanHitRateFloor of the page lookups. One cold
// iteration plus four cached ones puts the ideal rate at ~0.8; falling
// under the floor means the cache stopped serving or the accounting went
// untruthful.
func TestRepeatScanHitRateFloor(t *testing.T) {
	st := pagecacheAt[2]().CacheStats // a budget of twice the adjacency
	if st.Hits+st.Misses == 0 {
		t.Fatal("cache saw no traffic")
	}
	if hr := st.HitRate(); hr < RepeatScanHitRateFloor {
		t.Errorf("repeat-scan hit rate %.3f under floor %.2f (hits=%d misses=%d)",
			hr, RepeatScanHitRateFloor, st.Hits, st.Misses)
	}
}

// TestPagecacheSnapshotShape checks the measured invariants the table is
// built on: the cache-off leg and the quarter-graph leg, whose cache
// thrashes, read the whole scan from the device, while the 2x-graph leg
// reads less and is the only one to clear the hit-rate floor.
func TestPagecacheSnapshotShape(t *testing.T) {
	if testing.Short() {
		t.Skip("the suite's other two legs; skipped in -short mode")
	}
	base, thrash, atCapacity := pagecacheAt[0](), pagecacheAt[0.25](), pagecacheAt[2]()
	if base.Policy != "none" || base.ReadBytes == 0 {
		t.Fatalf("cache-off baseline missing or read nothing: %+v", base)
	}
	if thrash.ReadBytes != base.ReadBytes || thrash.HitRate() >= RepeatScanHitRateFloor {
		t.Errorf("1/4-graph cache read %d bytes at hit rate %.2f, want the whole scan (%d bytes) and no floor",
			thrash.ReadBytes, thrash.HitRate(), base.ReadBytes)
	}
	if atCapacity.ReadBytes >= base.ReadBytes {
		t.Errorf("2x-graph cache read %d bytes >= uncached %d", atCapacity.ReadBytes, base.ReadBytes)
	}
}
