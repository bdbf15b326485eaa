package frontier

import (
	"math/rand"
	"testing"

	"blaze/internal/graph"
)

// randomCSR builds a deterministic random graph for page-frontier tests.
func randomCSR(rng *rand.Rand, v uint32, e int) *graph.CSR {
	src := make([]uint32, e)
	dst := make([]uint32, e)
	for i := range src {
		src[i] = uint32(rng.Intn(int(v)))
		dst[i] = uint32(rng.Intn(int(v)))
	}
	return graph.MustBuild(v, src, dst)
}

// randomSubset activates each vertex with probability p/100.
func randomSubset(rng *rand.Rand, n uint32, pct int) *VertexSubset {
	f := NewVertexSubset(n)
	for v := uint32(0); v < n; v++ {
		if rng.Intn(100) < pct {
			f.Add(v)
		}
	}
	f.Seal()
	return f
}

// TestMergeDenseWordWise checks the word-wise dense x dense merge against
// the per-vertex reference path on overlapping random sets.
func TestMergeDenseWordWise(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := uint32(rng.Intn(500) + 100)
		a, b := NewVertexSubset(n), NewVertexSubset(n)
		// Force both dense with overlapping random members.
		for _, f := range []*VertexSubset{a, b} {
			for v := uint32(0); v < n; v++ {
				if rng.Intn(3) > 0 {
					f.Add(v)
				}
			}
			if !f.Dense() {
				t.Fatalf("trial %d: subset with ~2/3 density not dense", trial)
			}
		}
		// Reference: per-vertex merge into a fresh dense set.
		ref := NewVertexSubset(n)
		a.ForEach(func(v uint32) { ref.Add(v) })
		b.ForEach(func(v uint32) { ref.Add(v) })

		got := NewVertexSubset(n)
		a.ForEach(func(v uint32) { got.Add(v) })
		if !got.Dense() {
			t.Fatalf("trial %d: copy of a not dense", trial)
		}
		got.Merge(b) // dense x dense word-wise path

		if got.Count() != ref.Count() {
			t.Fatalf("trial %d: merged count %d, want %d", trial, got.Count(), ref.Count())
		}
		for v := uint32(0); v < n; v++ {
			if got.Has(v) != ref.Has(v) {
				t.Fatalf("trial %d: vertex %d membership %v, want %v", trial, v, got.Has(v), ref.Has(v))
			}
		}
	}
}

// TestMergeMixedRepresentations covers sparse/dense combinations against
// the same reference.
func TestMergeMixedRepresentations(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		n := uint32(rng.Intn(2000) + 200)
		a := randomSubset(rng, n, rng.Intn(40)+1)
		b := randomSubset(rng, n, rng.Intn(40)+1)
		ref := NewVertexSubset(n)
		a.ForEach(func(v uint32) { ref.Add(v) })
		b.ForEach(func(v uint32) { ref.Add(v) })

		got := NewVertexSubset(n)
		got.Merge(a)
		got.Merge(b)
		if got.Count() != ref.Count() {
			t.Fatalf("trial %d: count %d, want %d", trial, got.Count(), ref.Count())
		}
		for v := uint32(0); v < n; v++ {
			if got.Has(v) != ref.Has(v) {
				t.Fatalf("trial %d: vertex %d membership mismatch", trial, v)
			}
		}
	}
}
