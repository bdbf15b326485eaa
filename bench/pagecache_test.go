package bench

import (
	"testing"

	"blaze/internal/pagecache"
	"blaze/internal/registry"
	"blaze/internal/ssd"
)

// TestRepeatScanHitRateFloor is the CI hit-rate sanity gate: on the
// repeat-scan workload (dense PageRank iterations with a cache that holds
// the whole adjacency, with headroom for shard imbalance) the cache must
// serve at least RepeatScanHitRateFloor of the page lookups. One cold
// iteration plus four cached ones puts the ideal rate at ~0.8; falling
// under the floor means the cache stopped serving or the accounting went
// untruthful.
func TestRepeatScanHitRateFloor(t *testing.T) {
	d := MustLoad("r2", DefaultScale)
	pageBytes := d.CSR.NumPages() * int64(ssd.PageSize)
	pc := pagecache.New(2 * pageBytes)
	Run(d, Opts{System: "blaze", Query: "pr", PRIters: 5, Options: registry.Options{PageCache: pc}})
	st := pc.StatsDetail()
	if st.Hits+st.Misses == 0 {
		t.Fatal("cache saw no traffic")
	}
	if hr := st.HitRate(); hr < RepeatScanHitRateFloor {
		t.Errorf("repeat-scan hit rate %.3f under floor %.2f (hits=%d misses=%d)",
			hr, RepeatScanHitRateFloor, st.Hits, st.Misses)
	}
}

// TestPagecacheSnapshotShape runs the real suite end to end at the
// default scale and checks the measured invariants the table is built
// on: the cache-off leg and the thrash leg read the whole scan from the
// device, the at-capacity leg reads less and clears the hit-rate floor.
func TestPagecacheSnapshotShape(t *testing.T) {
	if testing.Short() {
		t.Skip("three measured runs; skipped in -short mode")
	}
	entries := PagecacheSnapshot(DefaultScale)
	if len(entries) != 3 {
		t.Fatalf("got %d entries, want 3 (none + clock x {1/4, 2x})", len(entries))
	}
	var base CacheSnapshotEntry
	for _, e := range entries {
		if e.Policy == "none" {
			base = e
		}
	}
	if base.ReadBytes == 0 {
		t.Fatal("cache-off baseline read nothing")
	}
	atCapacity := 0
	for _, e := range entries {
		if e.Policy == "none" {
			continue
		}
		if e.HitRate() >= RepeatScanHitRateFloor {
			atCapacity++
			// At-capacity leg: the cache must have cut device traffic.
			if e.ReadBytes >= base.ReadBytes {
				t.Errorf("%s/%dKB: hit rate %.2f but read %d bytes >= uncached %d",
					e.Policy, e.CacheKB, e.HitRate(), e.ReadBytes, base.ReadBytes)
			}
		}
		if e.ReadBytes > base.ReadBytes {
			t.Errorf("%s/%dKB: cached run read %d bytes > uncached %d",
				e.Policy, e.CacheKB, e.ReadBytes, base.ReadBytes)
		}
	}
	if atCapacity != 1 {
		t.Errorf("%d at-capacity legs cleared the floor, want 1 (clock at 2x graph)", atCapacity)
	}
}
