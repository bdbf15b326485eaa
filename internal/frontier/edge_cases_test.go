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

// TestResetKeepsRepresentation: a reset dense subset is empty, keeps its
// representation, and refills to the same state a fresh bitmap reaches; an
// empty one is left as it is.
func TestResetKeepsRepresentation(t *testing.T) {
	const n = 1000
	for _, f := range []*VertexSubset{NewBitmap(n), All(n)} {
		for _, v := range []uint32{900, 3, 64, 3} {
			f.Add(v)
		}
		f.Reset()
		if !f.Empty() || f.Has(3) || f.Has(900) || !f.Dense() {
			t.Fatalf("reset left count %d, Has(3) %v, dense %v", f.Count(), f.Has(3), f.Dense())
		}
		f.Reset()
		fresh := NewBitmap(n)
		for _, v := range []uint32{7, 5} {
			f.Add(v)
			fresh.Add(v)
		}
		f.Seal()
		fresh.Seal()
		var got, want []uint32
		f.ForEach(func(v uint32) { got = append(got, v) })
		fresh.ForEach(func(v uint32) { want = append(want, v) })
		if !slices.Equal(got, want) || f.Count() != fresh.Count() || f.Bytes() != fresh.Bytes() {
			t.Fatalf("refilled after Reset: %v, fresh: %v", got, want)
		}
	}
}

// TestNewSizedAllocatesOnce: a sized subset fills its list without
// growing it, up to the density threshold, and behaves like a fresh one.
func TestNewSizedAllocatesOnce(t *testing.T) {
	const n = 2000
	f := NewSizedFrom(nil, n, 1<<20)
	if cap(f.sparse) != n/denseFraction+1 {
		t.Fatalf("list capacity %d, want the threshold %d + 1", cap(f.sparse), n/denseFraction)
	}
	if allocs := testing.AllocsPerRun(1, func() {
		f := NewSizedFrom(nil, n, 50)
		for v := uint32(0); v < 50; v++ {
			f.Add(v * 7)
		}
	}); allocs > 3 {
		t.Errorf("filling a sized list allocated %v times, want the subset, its list and its bitmap", allocs)
	}
	for v := uint32(0); v <= n/denseFraction; v++ {
		f.Add(v)
	}
	if !f.Dense() || f.Count() != n/denseFraction+1 || f.Bytes() != int64(len(f.bits))*8 {
		t.Fatalf("sized subset past the threshold: dense %v, count %d, bytes %d", f.Dense(), f.Count(), f.Bytes())
	}
}
