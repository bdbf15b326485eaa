package pagecache

import (
	"testing"

	"blaze/internal/graph"
)

// TestQuotaRejectsOverAdmission: at capacity an owner over its quota may
// not displace other owners' frames — PutOwned reports PutQuotaRejected
// and the resident set is untouched.
func TestQuotaRejectsOverAdmission(t *testing.T) {
	c := NewWithPolicy(4*graph.PageSize, PolicyLRU)
	g := c.GraphID("g")
	c.SetQuota(1, 2)
	c.SetQuota(2, 2)
	// Owner 2 fills its share, then owner 1 fills the rest.
	c.PutOwned(Key{g, 10}, page(1), 2)
	c.PutOwned(Key{g, 11}, page(2), 2)
	c.PutOwned(Key{g, 12}, page(3), 1)
	c.PutOwned(Key{g, 13}, page(4), 1)
	// Owner 1 is at quota and the cache is at capacity: a further insert
	// may only recycle owner 1's own frames, never owner 2's.
	res := c.PutOwned(Key{g, 14}, page(5), 1)
	out := make([]byte, graph.PageSize)
	if !get(c, Key{g, 10}, out) || !get(c, Key{g, 11}, out) {
		t.Fatal("owner 1 over quota displaced owner 2's frames")
	}
	if res&PutQuotaRejected != 0 {
		// Rejected outright is also legal when no own frame was
		// recyclable; then the new page must be absent.
		if get(c, Key{g, 14}, out) {
			t.Fatal("rejected put is resident")
		}
		if c.OwnerRejected(1) == 0 {
			t.Error("rejection not counted")
		}
	} else {
		// Self-eviction: one of owner 1's earlier pages made room.
		if !get(c, Key{g, 14}, out) {
			t.Fatal("self-evicting put not resident")
		}
		if get(c, Key{g, 12}, out) && get(c, Key{g, 13}, out) {
			t.Fatal("self-eviction kept all of owner 1's pages")
		}
	}
	if got := c.OwnerResident(1); got != 2 {
		t.Errorf("owner 1 resident = %d, want 2", got)
	}
}

// TestQuotaUnownedUnaffected: NoOwner admissions (single-query mode) are
// never quota-checked, and Put delegates to PutOwned with NoOwner.
func TestQuotaUnownedUnaffected(t *testing.T) {
	c := NewWithPolicy(2*graph.PageSize, PolicyCLOCK)
	g := c.GraphID("g")
	c.SetQuota(7, 1)
	for i := int64(0); i < 8; i++ {
		if res := c.Put(Key{g, i}, page(byte(i))); res&PutQuotaRejected != 0 {
			t.Fatalf("unowned put %d quota-rejected", i)
		}
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}

// TestQuotaGrowsWhenRaised: raising an owner's quota lets it admit again
// (the session rebalances shares as queries finish).
func TestQuotaGrowsWhenRaised(t *testing.T) {
	c := NewWithPolicy(4*graph.PageSize, PolicyLRU)
	g := c.GraphID("g")
	c.SetQuota(1, 1)
	c.PutOwned(Key{g, 0}, page(1), 1)
	c.PutOwned(Key{g, 1}, page(2), 1)
	// Cache not at capacity, but owner beyond quota still self-limits
	// once capacity is reached; fill to capacity with another owner.
	c.PutOwned(Key{g, 2}, page(3), 2)
	c.PutOwned(Key{g, 3}, page(4), 2)
	c.SetQuota(1, 3)
	res := c.PutOwned(Key{g, 4}, page(5), 1)
	if res&PutQuotaRejected != 0 {
		t.Fatal("put rejected after raising quota")
	}
	out := make([]byte, graph.PageSize)
	if !get(c, Key{g, 4}, out) {
		t.Fatal("admitted page not resident")
	}
}

// TestQuotaReleasedOnRemoval: SetQuota(owner, 0) removes the bound.
func TestQuotaReleasedOnRemoval(t *testing.T) {
	c := NewWithPolicy(4*graph.PageSize, PolicyCLOCK)
	g := c.GraphID("g")
	c.SetQuota(1, 1)
	c.SetQuota(1, 0)
	for i := int64(0); i < 4; i++ {
		if res := c.PutOwned(Key{g, i}, page(byte(i)), 1); res&PutQuotaRejected != 0 {
			t.Fatalf("put %d rejected after quota removal", i)
		}
	}
}
