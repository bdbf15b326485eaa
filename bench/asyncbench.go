package bench

import (
	"fmt"

	"blaze/internal/pagecache"
	"blaze/internal/ssd"
)

// The async suite measures the barrier-free driver against barrier rounds
// on the workload the barrier hurts most: a high-diameter crawl (sk2005,
// diameter ~205), where level-synchronous BFS runs hundreds of rounds and
// pays a pipeline drain-and-refill stall at every one. The barrier-free
// driver replaces the per-level barrier with priority-ordered page waves
// (cache-resident pages first). ACGraph (PAPERS.md) names the regime where
// that ordering should pay — high diameter, cache far below the working
// set — so the suite sweeps the shared cache from none to a quarter of the
// adjacency and records where blaze-async wins, ties and loses.

// AsyncBFSGate is the CI bound on the blaze-async/blaze BFS makespan
// ratio on the high-diameter graph with no cache: the barrier-free driver
// must be at least as fast as barrier rounds where barrier stalls dominate.
const AsyncBFSGate = 1.0

// AsyncGraph is the dataset the async suite measures: the paper's
// highest-diameter crawl, the worst case for per-level barriers.
const AsyncGraph = "sk"

// AsyncEntry is one (cache, query) cell of the async suite: barrier rounds
// (blaze) and page waves (blaze-async) side by side.
type AsyncEntry struct {
	Query string
	// CacheDiv sizes the page cache at 1/CacheDiv of the adjacency pages;
	// 0 means no cache.
	CacheDiv       int
	BlazeNs        int64
	AsyncNs        int64
	BlazeReadBytes int64
	AsyncReadBytes int64
}

// AsyncSnapshot runs BFS, PageRank and WCC on the high-diameter crawl
// under both drivers with no cache, an eighth and a quarter of the
// adjacency cached, and returns one entry per cell. PageRank runs 5 fixed
// iterations under blaze; under blaze-async the same cap bounds the
// processed mass (MaxIters × the initial frontier), holding the two runs
// to comparable work.
func AsyncSnapshot(scale float64) []AsyncEntry {
	d := MustLoad(AsyncGraph, scale)
	pageBytes := d.CSR.NumPages() * int64(ssd.PageSize)
	measure := func(system, query string, div int) Result {
		var pc *pagecache.Cache // a fresh cache per run
		if div > 0 {
			pc = pagecache.New(pageBytes / int64(div))
		}
		return Run(d, Opts{System: system, Query: query, PRIters: 5, PageCache: pc})
	}
	var entries []AsyncEntry
	for _, div := range []int{0, 8, 4} {
		for _, query := range []string{"bfs", "pr", "wcc"} {
			b, a := measure("blaze", query, div), measure("blaze-async", query, div)
			entries = append(entries, AsyncEntry{
				Query:          query,
				CacheDiv:       div,
				BlazeNs:        b.ElapsedNs,
				AsyncNs:        a.ElapsedNs,
				BlazeReadBytes: b.ReadBytes,
				AsyncReadBytes: a.ReadBytes,
			})
		}
	}
	return entries
}

// ExtAsync tabulates AsyncSnapshot.
func ExtAsync(scale float64) []Table {
	t := Table{
		ID:    "ext_async",
		Title: "Barrier-free driver vs barrier rounds on the high-diameter sk2005 preset, by page-cache size",
		Header: []string{"cache", "query", "blaze ms", "blaze-async ms", "async speedup",
			"blaze read MB", "blaze-async read MB"},
	}
	for _, e := range AsyncSnapshot(scale) {
		cache := "none"
		if e.CacheDiv > 0 {
			cache = fmt.Sprintf("1/%d adjacency", e.CacheDiv)
		}
		t.Add(cache, e.Query, float64(e.BlazeNs)/1e6, float64(e.AsyncNs)/1e6,
			float64(e.BlazeNs)/float64(e.AsyncNs),
			float64(e.BlazeReadBytes)/1e6, float64(e.AsyncReadBytes)/1e6)
	}
	t.Notes = append(t.Notes,
		"Speedup above 1 means blaze-async wins. ACGraph's regime is PageRank with a cache far below the working set; which cell wins moves with -scale (DESIGN.md section 13 records the -scale 512 sweep).")
	return []Table{t}
}
