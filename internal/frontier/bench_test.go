package frontier

import (
	"math/rand"
	"testing"
)

// BenchmarkPagesOf measures the vertex→page frontier conversion on a dense
// frontier — the shape that dominates PageRank and WCC rounds.
func BenchmarkPagesOf(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const v, e = 200_000, 2_000_000
	c := randomCSR(rng, v, e)
	f := All(v)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if PagesOf(f, c, 4).Pages() == 0 {
			b.Fatal("empty page frontier")
		}
	}
}

// BenchmarkMergeDense measures combining per-proc output frontiers, the
// per-round epilogue of every EdgeMap call.
func BenchmarkMergeDense(b *testing.B) {
	const n = 1 << 20
	other := All(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := All(n)
		f.Merge(other)
		if f.Count() != n {
			b.Fatal("bad merge")
		}
	}
}
