package pipeline

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"blaze/internal/frontier"
)

// mergeOracle is the per-vertex merge MergeFrontiers replaced: every part
// re-inserted vertex by vertex into a growing subset, then sealed.
func mergeOracle(n uint32, fronts []*frontier.VertexSubset) *frontier.VertexSubset {
	merged := frontier.NewVertexSubset(n)
	for _, f := range fronts {
		if f == nil {
			continue
		}
		merged.Merge(f)
	}
	merged.Seal()
	return merged
}

// partsFrom decodes a list of per-proc frontiers over n vertices from data:
// each part is a kind byte, a length byte and that many two-byte members
// (taken mod n, so duplicates within and across parts are common). Kinds
// cover what the engines hand MergeFrontiers: nil, empty, sparse (sealed or
// not), dense (past the threshold or All), a bitmap output frontier, and a
// bitmap reused after Reset.
func partsFrom(n uint32, data []byte) []*frontier.VertexSubset {
	var parts []*frontier.VertexSubset
	for len(data) >= 2 {
		kind, k := data[0]%8, int(data[1])
		data = data[2:]
		var members []uint32
		for ; k > 0 && len(data) >= 2; k-- {
			members = append(members, uint32(binary.LittleEndian.Uint16(data))%n)
			data = data[2:]
		}
		var f *frontier.VertexSubset
		switch kind {
		case 0:
			parts = append(parts, nil)
			continue
		case 1:
			f = frontier.NewVertexSubset(n)
		case 2, 3:
			f = frontier.NewVertexSubset(n)
			for _, v := range members {
				f.Add(v)
			}
			if kind == 3 {
				f.Seal()
			}
		case 4:
			// Dense: the members plus a stride past the threshold.
			f = frontier.NewVertexSubset(n)
			for _, v := range members {
				f.Add(v)
			}
			for v := uint32(0); v < n && !f.Dense(); v += 3 {
				f.Add(v)
			}
		case 5:
			f = frontier.All(n)
		case 6, 7:
			f = frontier.NewBitmap(n)
			if kind == 7 {
				for v := uint32(0); v < n; v += 2 {
					f.Add(v)
				}
				f.Reset()
			}
			for _, v := range members {
				f.Add(v)
			}
		}
		parts = append(parts, f)
	}
	return parts
}

func members(f *frontier.VertexSubset) []uint32 {
	var vs []uint32
	f.ForEach(func(v uint32) { vs = append(vs, v) })
	return vs
}

// checkMerge compares MergeFrontiers with the oracle on everything a caller
// can observe, and checks the result shares no storage with the parts: it
// must survive the parts being refilled, and the dense ones reset first, as
// the pool does to EdgeMap's gather frontiers.
func checkMerge(t *testing.T, n uint32, parts []*frontier.VertexSubset) {
	t.Helper()
	want := mergeOracle(n, parts)
	got := MergeFrontiers(n, parts)
	same := func(when string) {
		t.Helper()
		if got.N() != n || got.Count() != want.Count() || got.Dense() != want.Dense() || got.Bytes() != want.Bytes() {
			t.Fatalf("%s: n=%d: got count %d dense %v bytes %d, want count %d dense %v bytes %d",
				when, n, got.Count(), got.Dense(), got.Bytes(), want.Count(), want.Dense(), want.Bytes())
		}
		if g, w := members(got), members(want); !slices.Equal(g, w) {
			t.Fatalf("%s: n=%d: ForEach visits %v, want %v", when, n, g, w)
		}
		for v := uint32(0); v < n; v++ {
			if got.Has(v) != want.Has(v) {
				t.Fatalf("%s: n=%d: Has(%d) = %v, want %v", when, n, v, got.Has(v), want.Has(v))
			}
		}
		// Sealed: a second Seal must change nothing.
		got.Seal()
		if g, w := members(got), members(want); !slices.Equal(g, w) {
			t.Fatalf("%s: n=%d: Seal reordered the merge", when, n)
		}
	}
	same("merged")
	for _, p := range parts {
		if p == nil {
			continue
		}
		if p.Dense() {
			p.Reset()
		}
		p.Add(n - 1)
	}
	same("after the parts were reset and refilled")
}

// TestMergeFrontiersMatchesOracle: on random mixes of part kinds, including
// duplicates across parts, the word-wise merge equals the per-vertex one.
func TestMergeFrontiersMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 2000; i++ {
		n := uint32(1 + rng.Intn(700))
		data := make([]byte, rng.Intn(160))
		rng.Read(data)
		checkMerge(t, n, partsFrom(n, data))
	}
}

// TestMergeFrontiersEdgeShapes: no parts, only nil and empty parts (no
// bitmap, zero bytes), and disjoint parts each under the density threshold
// whose union crosses it.
func TestMergeFrontiersEdgeShapes(t *testing.T) {
	const n = 1000
	for _, parts := range [][]*frontier.VertexSubset{
		nil,
		{nil, frontier.NewVertexSubset(n), frontier.NewBitmap(n)},
	} {
		if got := MergeFrontiers(n, parts); got.Bytes() != 0 || !got.Empty() {
			t.Fatalf("an empty merge holds %d bytes", got.Bytes())
		}
		checkMerge(t, n, parts)
	}
	var parts []*frontier.VertexSubset
	for p := uint32(0); p < 3; p++ {
		f := frontier.NewVertexSubset(n)
		for v := p; v < 3*(n/20); v += 3 {
			f.Add(v)
		}
		if f.Dense() {
			t.Fatal("a part crossed the threshold by itself")
		}
		parts = append(parts, f)
	}
	if got := MergeFrontiers(n, parts); !got.Dense() {
		t.Fatalf("the union of %d members over %d vertices stayed sparse", got.Count(), n)
	}
	checkMerge(t, n, parts)
}

// FuzzMergeFrontiers is TestMergeFrontiersMatchesOracle over fuzzed part
// lists.
func FuzzMergeFrontiers(f *testing.F) {
	f.Add(uint16(100), []byte{2, 3, 1, 0, 9, 0, 50, 0, 3, 2, 9, 0, 7, 0})
	f.Add(uint16(64), []byte{4, 1, 5, 0, 6, 2, 5, 0, 63, 0, 0, 0})
	f.Add(uint16(1), []byte{5, 0, 1, 0, 7, 1, 0, 0})
	f.Fuzz(func(t *testing.T, n16 uint16, data []byte) {
		n := uint32(n16%4096) + 1
		checkMerge(t, n, partsFrom(n, data))
	})
}
