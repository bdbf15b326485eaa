package engine

import (
	"testing"

	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/graph"
	"blaze/internal/metrics"
	"blaze/internal/pagecache"
)

// TestProbeRunTrimsDeviceReads: the acceptance check for the multi-page
// probe contract. The traversal merges device-adjacent pages into runs of
// up to MaxMergePages; warming only the TAIL pages of each run (logical
// page % MaxMergePages != 0) builds the worst case for the seed's
// single-page probe, which only consulted the cache at the run cursor —
// every run head misses, so that baseline reads every page from the device.
// ProbeRun's suffix trim must instead serve the warmed tails and shrink
// each device read to the run head, cutting device traffic by more than
// half while keeping results exact.
func TestProbeRunTrimsDeviceReads(t *testing.T) {
	ctx := exec.NewSim()
	stats := metrics.NewIOStats(1)
	g, c := testGraph(ctx, 1, stats)
	conf := DefaultConfig(c.E)
	conf.Stats = stats
	conf.MaxMergePages = 4

	// Pass 1, cold with a covering cache: measures the uncached page count
	// and captures real page contents for the selective warm-up.
	warm := pagecache.New(1 << 30)
	conf.PageCache = warm
	runOnce := func(p exec.Proc) []int64 {
		got := make([]int64, c.V)
		EdgeMap(ctx, p, g, frontier.All(c.V),
			func(s, d uint32) int64 { return 1 },
			func(d uint32, v int64) bool { got[d] += v; return false },
			func(d uint32) bool { return true },
			false, conf)
		return got
	}
	var first, second []int64
	var bytes1, bytes2 int64
	ctx.Run("main", func(p exec.Proc) {
		first = runOnce(p)
		bytes1 = stats.TotalBytes()
	})
	totalPages := bytes1 / graph.PageSize
	if totalPages < 8 {
		t.Fatalf("test graph too small: %d pages read cold", totalPages)
	}

	// Warm a fresh cache with only the tail pages of each aligned run,
	// copying real contents out of the covering cache so served pages stay
	// correct. (Pass 1 started at page 0, so runs stay 4-aligned.)
	tails := pagecache.New(1 << 30)
	warmID := warm.GraphID(g.Name)
	tailsID := tails.GraphID(g.Name)
	page := make([]byte, graph.PageSize)
	warmed := 0
	for l := int64(0); l < totalPages; l++ {
		if l%int64(conf.MaxMergePages) == 0 {
			continue // run heads stay cold
		}
		if prefix, _ := warm.ProbeRun(warmID, l, 1, 1, page); prefix != 1 {
			t.Fatalf("page %d missing from covering cache after cold pass", l)
		}
		tails.Put(pagecache.Key{Graph: tailsID, Logical: l}, page)
		warmed++
	}
	conf.PageCache = tails

	ctx.Run("main2", func(p exec.Proc) {
		base := stats.TotalBytes()
		second = runOnce(p)
		bytes2 = stats.TotalBytes() - base
	})

	for v := range first {
		if first[v] != second[v] {
			t.Fatalf("trimmed traversal changed result at vertex %d: %d vs %d", v, first[v], second[v])
		}
	}
	// Single-page-probe baseline: every run head misses, so it reads all
	// totalPages pages. Suffix trimming must beat half of that (the ideal
	// is totalPages/4: one head per run).
	if bytes2*2 > bytes1 {
		t.Errorf("device read %d pages with warmed tails; single-page-probe baseline reads %d, want under half",
			bytes2/graph.PageSize, totalPages)
	}
	st := tails.StatsDetail()
	if st.Hits == 0 {
		t.Error("no pages served from the tails-only cache")
	}
	if got := bytes2/graph.PageSize + st.Hits; got != totalPages {
		t.Errorf("served %d + device %d = %d pages, want exactly %d (truthful accounting)",
			st.Hits, bytes2/graph.PageSize, got, totalPages)
	}
	t.Logf("cold=%d pages, warmed tails=%d, device after trim=%d pages, served=%d",
		totalPages, warmed, bytes2/graph.PageSize, st.Hits)
}

// TestPageCachePartialCapacity: a cache smaller than the graph must stay
// within budget and keep results exact.
func TestPageCachePartialCapacity(t *testing.T) {
	ctx := exec.NewSim()
	g, c := testGraph(ctx, 1, nil)
	conf := DefaultConfig(c.E)
	conf.PageCache = pagecache.New(8 * 4096) // 8 pages only
	got := make([]int64, c.V)
	ctx.Run("main", func(p exec.Proc) {
		EdgeMap(ctx, p, g, frontier.All(c.V),
			func(s, d uint32) int64 { return 1 },
			func(d uint32, v int64) bool { got[d] += v; return false },
			func(d uint32) bool { return true },
			false, conf)
	})
	var total int64
	for _, x := range got {
		total += x
	}
	if total != c.E {
		t.Errorf("in-degree sum %d, want %d", total, c.E)
	}
	if conf.PageCache.Len() > 8 {
		t.Errorf("cache holds %d pages, budget 8", conf.PageCache.Len())
	}
}
