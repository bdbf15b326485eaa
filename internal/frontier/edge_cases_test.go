package frontier

import (
	"slices"
	"testing"
)

func TestNReturnsUniverse(t *testing.T) {
	if NewVertexSubset(42).N() != 42 {
		t.Error("N() wrong")
	}
}

func TestMergeIntoEmpty(t *testing.T) {
	a := NewVertexSubset(100)
	b := NewVertexSubset(100)
	b.Add(3)
	b.Add(7)
	a.Merge(b)
	if a.Count() != 2 || !a.Has(3) || !a.Has(7) {
		t.Error("merge into empty lost members")
	}
	// Merging nil and empty are no-ops.
	a.Merge(nil)
	a.Merge(NewVertexSubset(100))
	if a.Count() != 2 {
		t.Error("no-op merges changed count")
	}
}

func TestSealIdempotent(t *testing.T) {
	f := NewVertexSubset(50)
	f.Add(9)
	f.Add(2)
	f.Seal()
	f.Seal()
	if !f.Has(2) || !f.Has(9) {
		t.Error("double Seal broke membership")
	}
}

func TestHasOnUnsealedEmpty(t *testing.T) {
	f := NewVertexSubset(10)
	if f.Has(5) {
		t.Error("empty subset claims membership")
	}
}

func TestAllOfOne(t *testing.T) {
	f := All(1)
	if f.Count() != 1 || !f.Has(0) {
		t.Error("All(1) broken")
	}
}

func TestDensifyOnMergePastThreshold(t *testing.T) {
	a := NewVertexSubset(100)
	b := NewVertexSubset(100)
	for v := uint32(0); v < 10; v++ { // 10 > 100/20 after merge
		b.Add(v)
	}
	a.Merge(b)
	if !a.Dense() {
		t.Error("merge past threshold did not densify")
	}
	if a.Count() != 10 {
		t.Errorf("count = %d", a.Count())
	}
}

// Seal orders a sparse list either by walking the bitmap or by sorting the
// list, by their relative sizes. Both must give the ascending members.
func TestSealWalkAndSortAgree(t *testing.T) {
	const n = 1 << 16 // 1024 bitmap words: the walk starts at 128 members
	for _, members := range []int{2, 127, 128, 129, 2000} {
		f := NewVertexSubset(n)
		want := make([]uint32, 0, members)
		for i := members; i > 0; i-- { // descending, so Seal has work to do
			v := uint32(i) * 31 % n
			f.Add(v)
			f.Add(v) // duplicates leave no second copy behind
			want = append(want, v)
		}
		if f.Dense() {
			t.Fatalf("%d members of %d went dense", members, n)
		}
		walks := members*sealWalkRatio >= len(f.bits)
		if walks != (members >= 128) {
			t.Fatalf("%d members: walk = %v, threshold moved", members, walks)
		}
		f.Seal()
		slices.Sort(want)
		var got []uint32
		f.ForEach(func(v uint32) { got = append(got, v) })
		if !slices.Equal(got, want) {
			t.Errorf("%d members (walk %v): sealed order differs from the sorted members", members, walks)
		}
		if f.Count() != int64(members) {
			t.Errorf("%d members: Count = %d after Seal", members, f.Count())
		}
	}
}
