package flashgraph

import (
	"testing"
	"testing/quick"

	"blaze/internal/exec"
	"blaze/internal/pagecache"
)

// TestOwnerCoversAllWorkers: range ownership must be monotone, total, and
// assign every worker a non-empty range when V >= workers.
func TestOwnerCoversAllWorkers(t *testing.T) {
	const n, workers = 1000, 16
	seen := map[int]bool{}
	prev := 0
	for v := uint32(0); v < n; v++ {
		o := owner(v, n, workers)
		if o < 0 || o >= workers {
			t.Fatalf("owner(%d) = %d out of range", v, o)
		}
		if o < prev {
			t.Fatalf("ownership not monotone at %d", v)
		}
		prev = o
		seen[o] = true
	}
	if len(seen) != workers {
		t.Errorf("only %d of %d workers own vertices", len(seen), workers)
	}
}

// TestOwnerProperty: ownership is stable and within bounds for arbitrary
// shapes.
func TestOwnerProperty(t *testing.T) {
	f := func(vRaw uint32, nRaw uint16, wRaw uint8) bool {
		n := uint32(nRaw) + 1
		v := vRaw % n
		w := int(wRaw)%32 + 1
		o := owner(v, n, w)
		return o >= 0 && o < w && o == owner(v, n, w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRangeOwnershipSkew documents the mechanism behind Fig. 2: on a
// synthetic in-degree distribution concentrated at low IDs, the first
// owner's share is far above 1/workers.
func TestRangeOwnershipSkewOnLowIDMass(t *testing.T) {
	const n, workers = 1 << 16, 16
	var mass [workers]int64
	var total int64
	for v := uint32(0); v < n; v++ {
		deg := int64(1)
		if v < n/16 {
			deg = 16 // low-ID hubs
		}
		mass[owner(v, n, workers)] += deg
		total += deg
	}
	if frac := float64(mass[0]) / float64(total); frac < 3.0/float64(workers) {
		t.Errorf("owner 0 share %.2f not skewed (balanced = %.3f)", frac, 1.0/workers)
	}
}

// TestPrivateCacheIsLRU: FlashGraph's model is the single-shard global
// LRU (§III-A) — the one place PolicyLRU is chosen. At the default 64 MB
// budget the blaze-family CLOCK cache would have 64 shards.
func TestPrivateCacheIsLRU(t *testing.T) {
	s := New(exec.NewSim(), DefaultConfig())
	if n := s.cache.NumShards(); n != 1 {
		t.Errorf("flashgraph cache has %d shards, want the single-shard LRU", n)
	}
	if clock := pagecache.New(DefaultConfig().CacheBytes); clock.NumShards() <= 1 {
		t.Errorf("the CLOCK cache at the same budget has %d shards: the check above tells nothing", clock.NumShards())
	}
}
