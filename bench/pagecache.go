package bench

import (
	"blaze/internal/metrics"
	"blaze/internal/pagecache"
	"blaze/internal/ssd"
)

// RepeatScanHitRateFloor is the minimum hit rate the page cache must reach
// on the repeat-scan workload (PageRank, 5 dense iterations, cache sized at
// twice the adjacency — the headroom absorbs hash imbalance across shards,
// whose per-shard capacities would otherwise sit exactly at the expected
// load). The first iteration is cold and the remaining four are served from
// cache, so the ideal rate is ~0.8; the floor leaves room for
// merge-boundary misses while still catching accounting bugs (a cache that
// double-counts or stops serving drops far below it). CI gates on this
// constant (TestRepeatScanHitRateFloor).
const RepeatScanHitRateFloor = 0.7

// CacheSnapshotEntry is one cache-size measurement of the page-cache
// suite: the modeled makespan and device traffic plus the cache's own
// counters, the numbers a pagecache-layer change can regress.
type CacheSnapshotEntry struct {
	Policy     string // "none" or "clock"
	CacheKB    int64
	MakespanNs int64
	ReadBytes  int64
	metrics.CacheStats
}

// pagecacheBudgets are the page-cache suite's cache budgets, as multiples
// of the adjacency; 0 runs without a cache.
var pagecacheBudgets = []float64{0, 0.25, 2}

// PagecacheSnapshot measures the blaze engine on the repeat-scan workload
// (PageRank with dense iterations on the rmat27 preset) without a cache and
// with the blaze cache (sharded CLOCK) at quarter-graph and double-graph
// budgets. Quarter capacity is a cyclic scan over 4x the budget, which
// evicts every page before its reuse; 2x capacity is the ceiling (the
// headroom absorbs CLOCK's per-shard hash imbalance, which at
// exactly-graph budgets evicts even though the total fits).
func PagecacheSnapshot(scale float64) []CacheSnapshotEntry {
	d := MustLoad("r2", scale)
	var entries []CacheSnapshotEntry
	for _, adjs := range pagecacheBudgets {
		entries = append(entries, pagecacheRun(d, adjs))
	}
	return entries
}

// pagecacheRun measures the suite's leg with a cache of adjs adjacencies.
func pagecacheRun(d *Dataset, adjs float64) CacheSnapshotEntry {
	o := Opts{System: "blaze", Query: "pr", PRIters: 5}
	e := CacheSnapshotEntry{Policy: "none"}
	if adjs > 0 {
		budget := int64(adjs * float64(d.CSR.NumPages()*int64(ssd.PageSize)))
		e.Policy, e.CacheKB, o.PageCache = "clock", budget>>10, pagecache.New(budget)
	}
	r := Run(d, o)
	e.MakespanNs, e.ReadBytes, e.CacheStats = r.ElapsedNs, r.ReadBytes, o.PageCache.StatsDetail() // nil: zero stats
	return e
}

// pagecacheTable tabulates PagecacheSnapshot.
func pagecacheTable(entries []CacheSnapshotEntry) []Table {
	t := Table{
		ID:     "ext_pagecache",
		Title:  "Page cache on repeat scans: blaze PageRank (5 iterations, rmat27 preset) by cache budget",
		Header: []string{"policy", "cache KB", "time ms", "read MB", "hit rate", "evictions", "ghost hits"},
	}
	for _, e := range entries {
		t.Add(e.Policy, e.CacheKB, float64(e.MakespanNs)/1e6, float64(e.ReadBytes)/1e6,
			e.HitRate(), e.Evictions, e.GhostHits)
	}
	t.Notes = append(t.Notes,
		"Budgets are a quarter of the adjacency (a cyclic scan over 4x the budget evicts every page before its next use: hit rate 0, and the ghost list never fires) and twice it (one cold pass, four cached: ~0.8).")
	return []Table{t}
}
