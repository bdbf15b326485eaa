package pagecache

import (
	"fmt"
	"sync"
	"testing"

	"blaze/internal/graph"
)

func page(fill byte) []byte {
	b := make([]byte, graph.PageSize)
	for i := range b {
		b[i] = fill
	}
	return b
}

// get probes the one page k through ProbeRun, the call every engine makes,
// and reports a hit.
func get(c *Cache, k Key, out []byte) bool {
	prefix, _ := c.ProbeRun(k.Graph, k.Logical, 1, 1, out)
	return prefix == 1
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(4 * graph.PageSize)
	g := c.GraphID("g")
	out := make([]byte, graph.PageSize)
	if get(c, Key{g, 0}, out) {
		t.Fatal("hit on empty cache")
	}
	c.Put(Key{g, 0}, page(7))
	if !get(c, Key{g, 0}, out) || out[100] != 7 {
		t.Fatal("miss or wrong data after Put")
	}
	if d := c.StatsDetail(); d.Hits != 1 || d.Misses != 1 {
		t.Errorf("stats = (%d,%d), want (1,1)", d.Hits, d.Misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewWithPolicy(2*graph.PageSize, PolicyLRU)
	if c.NumShards() != 1 {
		t.Fatalf("LRU cache has %d shards, want 1 (global recency order)", c.NumShards())
	}
	g := c.GraphID("g")
	c.Put(Key{g, 1}, page(1))
	c.Put(Key{g, 2}, page(2))
	out := make([]byte, graph.PageSize)
	get(c, Key{g, 1}, out)    // touch 1; 2 becomes LRU
	c.Put(Key{g, 3}, page(3)) // evicts 2
	if !get(c, Key{g, 1}, out) {
		t.Error("recently used page evicted")
	}
	if get(c, Key{g, 2}, out) {
		t.Error("LRU page not evicted")
	}
	if !get(c, Key{g, 3}, out) {
		t.Error("new page missing")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

// TestCLOCKSecondChance is the eviction-order property: every resident
// page gets one second chance. With a referenced page in a full shard, a
// sweep must clear its bit and evict an unreferenced page first, and the
// referenced page must survive one full round of inserts.
func TestCLOCKSecondChance(t *testing.T) {
	const cap = 8
	c := NewWithPolicy(cap*graph.PageSize, PolicyCLOCK)
	if c.NumShards() != 1 {
		t.Fatalf("tiny CLOCK cache has %d shards, want 1", c.NumShards())
	}
	g := c.GraphID("g")
	out := make([]byte, graph.PageSize)
	for i := int64(0); i < cap; i++ {
		c.Put(Key{g, i}, page(byte(i)))
	}
	// Reference page 3: its bit is set, everything else is unreferenced.
	if !get(c, Key{g, 3}, out) {
		t.Fatal("resident page missing")
	}
	// Insert cap-1 new pages: each evicts an unreferenced victim; page 3's
	// second chance (bit cleared, not evicted) must carry it through the
	// whole round.
	for i := int64(100); i < 100+cap-1; i++ {
		c.Put(Key{g, i}, page(byte(i)))
	}
	if !get(c, Key{g, 3}, out) {
		t.Error("referenced page evicted before every unreferenced page (no second chance)")
	}
	// One more insert: page 3's bit was cleared by the sweep, so it is now
	// evictable; the cache stays within budget throughout.
	c.Put(Key{g, 200}, page(0))
	if c.Len() != cap {
		t.Errorf("Len = %d, want %d", c.Len(), cap)
	}
}

// TestCLOCKEverybodyGetsOneChance: referencing every resident page forces
// a full sweep (clear all bits) before anything is evicted — exactly one
// eviction happens and the cache never exceeds capacity.
func TestCLOCKEverybodyGetsOneChance(t *testing.T) {
	const cap = 4
	c := NewWithPolicy(cap*graph.PageSize, PolicyCLOCK)
	g := c.GraphID("g")
	out := make([]byte, graph.PageSize)
	for i := int64(0); i < cap; i++ {
		c.Put(Key{g, i}, page(byte(i)))
	}
	for i := int64(0); i < cap; i++ {
		get(c, Key{g, i}, out)
	}
	c.Put(Key{g, 50}, page(50))
	if c.Len() != cap {
		t.Errorf("Len = %d, want %d", c.Len(), cap)
	}
	resident := 0
	for i := int64(0); i < cap; i++ {
		if get(c, Key{g, i}, out) {
			resident++
		}
	}
	if resident != cap-1 {
		t.Errorf("%d of the original pages resident, want %d (exactly one evicted)", resident, cap-1)
	}
}

// TestGhostListScanResistance: a page that bounces out and back while
// still remembered by the ghost list is readmitted hot (reference bit
// set), so it survives the next sweep ahead of scan pages.
func TestGhostListScanResistance(t *testing.T) {
	const cap = 4
	c := NewWithPolicy(cap*graph.PageSize, PolicyCLOCK)
	g := c.GraphID("g")
	out := make([]byte, graph.PageSize)
	c.Put(Key{g, 0}, page(0))
	// A scan displaces page 0 (all bits clear, FIFO order).
	for i := int64(10); i < 10+cap; i++ {
		c.Put(Key{g, i}, page(byte(i)))
	}
	if get(c, Key{g, 0}, out) {
		t.Fatal("page 0 should have been scanned out")
	}
	// Page 0 returns while on the ghost list: readmitted referenced.
	c.Put(Key{g, 0}, page(0))
	d := c.StatsDetail()
	if d.GhostHits == 0 {
		t.Fatal("readmission not counted as a ghost hit")
	}
	// A further scan of cap-1 cold pages must evict the scan pages first.
	for i := int64(30); i < 30+cap-1; i++ {
		c.Put(Key{g, i}, page(byte(i)))
	}
	if !get(c, Key{g, 0}, out) {
		t.Error("ghost-readmitted page displaced by a scan (no scan resistance)")
	}
}

// TestGraphReloadReusesEntries is the pointer-key regression test: a graph
// reloaded under the same name must hit the entries its previous
// incarnation inserted, and Len() must not grow.
func TestGraphReloadReusesEntries(t *testing.T) {
	c := New(16 * graph.PageSize)
	id1 := c.GraphID("dataset")
	for i := int64(0); i < 8; i++ {
		c.Put(Key{id1, i}, page(byte(i)))
	}
	if c.Len() != 8 {
		t.Fatalf("Len = %d, want 8", c.Len())
	}
	// "Reload": a new GraphID call for the same name (the old *CSR key
	// would have minted a fresh identity and stranded the 8 entries).
	id2 := c.GraphID("dataset")
	if id1 != id2 {
		t.Fatalf("reload minted a new identity: %d != %d", id1, id2)
	}
	out := make([]byte, graph.PageSize)
	for i := int64(0); i < 8; i++ {
		if !get(c, Key{id2, i}, out) || out[0] != byte(i) {
			t.Fatalf("reloaded graph missed page %d", i)
		}
		c.Put(Key{id2, i}, page(byte(i)))
	}
	if c.Len() != 8 {
		t.Errorf("Len grew to %d after reload re-insertion, want 8", c.Len())
	}
}

func TestDropGraph(t *testing.T) {
	c := New(16 * graph.PageSize)
	a, b := c.GraphID("a"), c.GraphID("b")
	for i := int64(0); i < 4; i++ {
		c.Put(Key{a, i}, page(1))
		c.Put(Key{b, i}, page(2))
	}
	c.DropGraph("a")
	out := make([]byte, graph.PageSize)
	for i := int64(0); i < 4; i++ {
		if get(c, Key{a, i}, out) {
			t.Errorf("dropped graph page %d still resident", i)
		}
		if !get(c, Key{b, i}, out) || out[0] != 2 {
			t.Errorf("survivor graph lost page %d", i)
		}
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d after drop, want 4", c.Len())
	}
	if c.GraphID("a") != a {
		t.Error("DropGraph invalidated the interned identity")
	}
}

func TestGraphsDoNotCollide(t *testing.T) {
	c := New(8 * graph.PageSize)
	g1, g2 := c.GraphID("g1"), c.GraphID("g2")
	if g1 == g2 {
		t.Fatal("distinct names interned to the same identity")
	}
	c.Put(Key{g1, 5}, page(1))
	c.Put(Key{g2, 5}, page(2))
	out := make([]byte, graph.PageSize)
	get(c, Key{g1, 5}, out)
	if out[0] != 1 {
		t.Error("graph 1 page corrupted by graph 2")
	}
	get(c, Key{g2, 5}, out)
	if out[0] != 2 {
		t.Error("graph 2 page wrong")
	}
}

func TestDisabledCache(t *testing.T) {
	for _, c := range []*Cache{nil, New(0), New(-5)} {
		if c.Enabled() {
			t.Error("cache should be disabled")
		}
		c.Put(Key{0, 0}, page(1)) // must not panic
		if get(c, Key{0, 0}, page(0)) {
			t.Error("disabled cache hit")
		}
		if p, s := c.ProbeRun(0, 0, 1, 4, make([]byte, 4*graph.PageSize)); p != 0 || s != 0 {
			t.Error("disabled cache served a run")
		}
		if c.Len() != 0 || c.Bytes() < 0 {
			t.Error("disabled cache accounting")
		}
	}
}

func TestPutUpdatesInPlace(t *testing.T) {
	c := New(4 * graph.PageSize)
	g := c.GraphID("g")
	c.Put(Key{g, 1}, page(1))
	c.Put(Key{g, 1}, page(9))
	out := make([]byte, graph.PageSize)
	get(c, Key{g, 1}, out)
	if out[0] != 9 {
		t.Error("re-Put did not update data")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d after duplicate Put", c.Len())
	}
}

// TestPageSizeStrict: short or long Puts are rejected (a short cached
// entry would leave a later probe's destination with a stale tail), and a
// probe into a short destination is a miss, not a partial copy.
func TestPageSizeStrict(t *testing.T) {
	c := New(4 * graph.PageSize)
	g := c.GraphID("g")
	if res := c.Put(Key{g, 1}, make([]byte, graph.PageSize-1)); res&PutStored != 0 {
		t.Error("short Put was stored")
	}
	if res := c.Put(Key{g, 2}, make([]byte, graph.PageSize+1)); res&PutStored != 0 {
		t.Error("long Put was stored")
	}
	if c.Len() != 0 {
		t.Errorf("Len = %d after rejected Puts, want 0", c.Len())
	}
	if d := c.StatsDetail(); d.Rejected != 2 {
		t.Errorf("Rejected = %d, want 2", d.Rejected)
	}
	c.Put(Key{g, 3}, page(7))
	short := make([]byte, graph.PageSize-1)
	short[0] = 99
	if get(c, Key{g, 3}, short) {
		t.Error("a probe into a short destination reported a hit")
	}
	if short[0] != 99 {
		t.Error("a probe into a short destination wrote data")
	}
}

// probeOut builds an n-page destination with distinct sentinel bytes so a
// test can tell exactly which pages ProbeRun wrote.
func probeOut(n int) []byte {
	out := make([]byte, n*graph.PageSize)
	for i := range out {
		out[i] = 0xEE
	}
	return out
}

func TestProbeRunFullHit(t *testing.T) {
	c := New(16 * graph.PageSize)
	g := c.GraphID("g")
	for i := int64(0); i < 4; i++ {
		c.Put(Key{g, 10 + 2*i}, page(byte(i))) // stride-2 run
	}
	out := probeOut(4)
	prefix, suffix := c.ProbeRun(g, 10, 2, 4, out)
	if prefix+suffix != 4 {
		t.Fatalf("ProbeRun = (%d,%d), want full hit", prefix, suffix)
	}
	for i := 0; i < 4; i++ {
		if out[i*graph.PageSize] != byte(i) {
			t.Errorf("page %d: got %d, want %d", i, out[i*graph.PageSize], i)
		}
	}
}

func TestProbeRunPrefixSuffix(t *testing.T) {
	c := New(16 * graph.PageSize)
	g := c.GraphID("g")
	// Run of 5 pages at 0..4; cached: 0 (prefix) and 3,4 (suffix).
	c.Put(Key{g, 0}, page(10))
	c.Put(Key{g, 3}, page(13))
	c.Put(Key{g, 4}, page(14))
	out := probeOut(5)
	prefix, suffix := c.ProbeRun(g, 0, 1, 5, out)
	if prefix != 1 || suffix != 2 {
		t.Fatalf("ProbeRun = (%d,%d), want (1,2)", prefix, suffix)
	}
	if out[0] != 10 || out[3*graph.PageSize] != 13 || out[4*graph.PageSize] != 14 {
		t.Error("served pages not copied to their run positions")
	}
	for _, mid := range []int{1, 2} {
		if out[mid*graph.PageSize] != 0xEE {
			t.Errorf("uncached middle page %d was written", mid)
		}
	}
	// Interior-only residency must not be served (the device read is one
	// contiguous span) and counts as misses.
	c2 := New(16 * graph.PageSize)
	g2 := c2.GraphID("g")
	c2.Put(Key{g2, 1}, page(1))
	c2.Put(Key{g2, 2}, page(2))
	out = probeOut(4)
	prefix, suffix = c2.ProbeRun(g2, 0, 1, 4, out)
	if prefix != 0 || suffix != 0 {
		t.Fatalf("interior pages served: (%d,%d)", prefix, suffix)
	}
	if misses := c2.StatsDetail().Misses; misses != 4 {
		t.Errorf("interior-only probe counted %d misses, want 4", misses)
	}
}

// TestProbeRunAccounting: served pages count as hits, unserved as misses,
// so partial hits keep the ablation's hit rate honest.
func TestProbeRunAccounting(t *testing.T) {
	c := New(16 * graph.PageSize)
	g := c.GraphID("g")
	c.Put(Key{g, 0}, page(0))
	c.Put(Key{g, 3}, page(3))
	out := probeOut(4)
	c.ProbeRun(g, 0, 1, 4, out) // prefix 1, suffix 1, 2 misses
	d := c.StatsDetail()
	if d.Hits != 2 || d.Misses != 2 {
		t.Errorf("stats = (%d,%d), want (2,2)", d.Hits, d.Misses)
	}
	if got := d.HitRate(); got != 0.5 {
		t.Errorf("HitRate = %v, want 0.5", got)
	}
}

func TestProbeRunShortDestination(t *testing.T) {
	c := New(16 * graph.PageSize)
	g := c.GraphID("g")
	c.Put(Key{g, 0}, page(1))
	if p, s := c.ProbeRun(g, 0, 1, 2, make([]byte, graph.PageSize)); p != 0 || s != 0 {
		t.Errorf("short destination served (%d,%d)", p, s)
	}
}

func TestShardCount(t *testing.T) {
	for _, tc := range []struct {
		pages  int
		policy Policy
		want   int
	}{
		{1, PolicyCLOCK, 1},
		{63, PolicyCLOCK, 1},
		{64, PolicyCLOCK, 2},
		{1 << 20, PolicyCLOCK, 64},
		{1 << 20, PolicyLRU, 1},
	} {
		c := NewWithPolicy(int64(tc.pages)*graph.PageSize, tc.policy)
		if got := c.NumShards(); got != tc.want {
			t.Errorf("shardCount(%d pages, %v) = %d, want %d", tc.pages, tc.policy, got, tc.want)
		}
		if got := c.NumShards(); got&(got-1) != 0 {
			t.Errorf("shard count %d not a power of two", got)
		}
	}
}

// TestConcurrentStress hammers ProbeRun/Put/evict across shards and
// graphs from many goroutines; run under -race it is the concurrency
// regression test for the sharded design. Capacity is far below the key
// range so eviction runs continuously.
func TestConcurrentStress(t *testing.T) {
	for _, policy := range []Policy{PolicyCLOCK, PolicyLRU} {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			c := NewWithPolicy(128*graph.PageSize, policy)
			ids := []ID{c.GraphID("a"), c.GraphID("b")}
			iters := 2000
			if testing.Short() {
				iters = 400
			}
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					out := make([]byte, 4*graph.PageSize)
					for i := 0; i < iters; i++ {
						g := ids[(w+i)%len(ids)]
						logical := int64((w*131 + i*17) % 1024)
						switch i % 3 {
						case 0:
							k := Key{g, logical}
							if !get(c, k, out) {
								c.Put(k, page(byte(logical)))
							}
						case 1:
							c.ProbeRun(g, logical, 1, 4, out)
						case 2:
							c.Put(Key{g, logical}, page(byte(logical)))
						}
					}
				}(w)
			}
			wg.Wait()
			if c.Len() > 128 {
				t.Errorf("cache exceeded capacity: %d pages", c.Len())
			}
			d := c.StatsDetail()
			if d.Hits+d.Misses == 0 {
				t.Error("no traffic recorded")
			}
			// Every resident page must still hold the content its key
			// implies (fill byte = logical), i.e. eviction and the arena
			// never crossed wires.
			out := make([]byte, graph.PageSize)
			for _, g := range ids {
				for logical := int64(0); logical < 1024; logical++ {
					if get(c, Key{g, logical}, out) && out[0] != byte(logical) {
						t.Fatalf("resident page (%d,%d) holds %d, want %d",
							g, logical, out[0], byte(logical))
					}
				}
			}
		})
	}
}

// TestConcurrentAccess is the legacy smoke test: capacity respected under
// concurrent fill from 8 goroutines.
func TestConcurrentAccess(t *testing.T) {
	c := New(64 * graph.PageSize)
	g := c.GraphID("g")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			out := make([]byte, graph.PageSize)
			for i := 0; i < 500; i++ {
				k := Key{g, int64((id*31 + i) % 100)}
				if !get(c, k, out) {
					c.Put(k, page(byte(k.Logical)))
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Errorf("cache exceeded capacity: %d pages", c.Len())
	}
}

// BenchmarkProbeHit measures the sharded one-page hit path (copy + touch
// under one shard mutex).
func BenchmarkProbeHit(b *testing.B) {
	c := New(1024 * graph.PageSize)
	g := c.GraphID("g")
	for i := int64(0); i < 1024; i++ {
		c.Put(Key{g, i}, page(byte(i)))
	}
	out := make([]byte, graph.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get(c, Key{g, int64(i) % 1024}, out)
	}
}

// BenchmarkProbeHitParallel measures shard-level contention relief: all
// procs hammer the cache at once.
func BenchmarkProbeHitParallel(b *testing.B) {
	c := New(1024 * graph.PageSize)
	g := c.GraphID("g")
	for i := int64(0); i < 1024; i++ {
		c.Put(Key{g, i}, page(byte(i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		out := make([]byte, graph.PageSize)
		var i int64
		for pb.Next() {
			get(c, Key{g, i % 1024}, out)
			i++
		}
	})
}

func ExamplePolicy_String() {
	fmt.Println(PolicyCLOCK, PolicyLRU)
	// Output: clock lru
}
