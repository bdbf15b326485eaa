// Package frontier implements Blaze's two frontier types (§IV-C):
// VertexSubset for vertex frontiers and PageSubset for the internal page
// frontier that drives IO. Both abstract a sparse (sorted ID list) and a
// dense (bitmap) representation and switch between them by density, as in
// Ligra. PageSubset is never exposed to users.
package frontier

import (
	"math/bits"
	"slices"

	"blaze/internal/graph"
)

// denseFraction is the Ligra-style switching threshold: a subset holding
// more than 1/20 of all vertices is kept dense.
const denseFraction = 20

// sealWalkRatio is how many bitmap words Seal will scan per sparse member
// before sorting the list is the cheaper way to order it.
const sealWalkRatio = 8

// VertexSubset is a set of vertex IDs out of n vertices. It is built by a
// single writer (or by per-proc subsets later merged) and must be Sealed
// before concurrent readers use Has/ForEach. Duplicate Adds are deduped: a
// membership bitmap always backs the set, while the sparse ID list exists
// only below the density threshold to drive cheap iteration (a NewBitmap
// subset never keeps one).
type VertexSubset struct {
	n      uint32
	dense  bool
	bits   []uint64
	sparse []uint32
	count  int64
	sorted bool
}

// NewVertexSubset returns an empty sparse subset over n vertices.
func NewVertexSubset(n uint32) *VertexSubset {
	return &VertexSubset{n: n, sorted: true}
}

// NewSizedFrom returns an empty sparse subset over n vertices whose list
// has room for max members or for as many as the list holds before the
// subset turns dense, whichever is fewer: the output of a map over a
// frontier of max members never grows its list by doubling. It builds into
// spare, a subset its owner no longer reads (nil allocates one): spare is
// emptied and its bitmap and list are kept when they are large enough, so
// a map whose output was handed back by an earlier round allocates nothing.
func NewSizedFrom(spare *VertexSubset, n uint32, max int64) *VertexSubset {
	f := Renew(spare, n)
	f.sparse = reuse(f.sparse, int(min(max, int64(f.n)/denseFraction+1)))
	return f
}

// Renew empties f for reuse as the subset NewVertexSubset(n) returns — no
// member, sparse, sealed, 0 Bytes — keeping its bitmap and list storage for
// the next Add or union to fill; a nil f is allocated. Only the owner of a
// subset nobody else reads may renew it.
func Renew(f *VertexSubset, n uint32) *VertexSubset {
	if f == nil {
		return NewVertexSubset(n)
	}
	*f = VertexSubset{n: n, bits: f.bits[:0], sparse: f.sparse[:0], sorted: true}
	return f
}

// reuse returns s emptied when it has room for n elements, otherwise a new
// slice with exactly that room.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// bitmap returns a cleared bitmap over f's n vertices, in f's retained
// storage when it is large enough.
func (f *VertexSubset) bitmap() []uint64 {
	w := (int(f.n) + 63) / 64
	if cap(f.bits) < w {
		return make([]uint64, w)
	}
	b := f.bits[:w]
	clear(b)
	return b
}

// NewBitmap returns an empty subset over n vertices kept as a bitmap
// whatever its count, so Add only sets a bit. It is a per-proc output
// frontier: Union reads nothing but its bitmap, so a sparse list would be
// work no reader uses. The bitmap is allocated by the first Add.
func NewBitmap(n uint32) *VertexSubset {
	return &VertexSubset{n: n, dense: true, sorted: true}
}

// Single returns a subset holding only v.
func Single(n, v uint32) *VertexSubset {
	f := NewVertexSubset(n)
	f.Add(v)
	return f
}

// All returns a dense subset with every vertex active.
func All(n uint32) *VertexSubset {
	f := &VertexSubset{n: n, dense: true, bits: make([]uint64, (int(n)+63)/64), count: int64(n)}
	for i := range f.bits {
		f.bits[i] = ^uint64(0)
	}
	if r := int(n) % 64; r != 0 && len(f.bits) > 0 {
		f.bits[len(f.bits)-1] = (1 << r) - 1
	}
	return f
}

// N returns the universe size.
func (f *VertexSubset) N() uint32 { return f.n }

// Add inserts v, ignoring duplicates.
func (f *VertexSubset) Add(v uint32) {
	if len(f.bits) == 0 {
		f.bits = f.bitmap()
	}
	w, b := v/64, uint64(1)<<(v%64)
	if f.bits[w]&b != 0 {
		return
	}
	f.bits[w] |= b
	f.count++
	if f.dense {
		return
	}
	if f.sorted && len(f.sparse) > 0 && v < f.sparse[len(f.sparse)-1] {
		f.sorted = false
	}
	f.sparse = append(f.sparse, v)
	if f.count > int64(f.n)/denseFraction {
		f.densify()
	}
}

// densify drops the sparse list; the bitmap is already authoritative.
func (f *VertexSubset) densify() {
	if f.dense {
		return
	}
	if len(f.bits) == 0 {
		f.bits = f.bitmap()
		for _, v := range f.sparse {
			f.bits[v/64] |= 1 << (v % 64)
		}
	}
	f.sparse = nil
	f.dense = true
}

// Seal prepares the subset for reading: a sparse list is put in ascending
// order so ForEach visits it that way. The bitmap already holds the same
// members in order, so a list long enough to outweigh a scan of the bitmap
// (one word per eight members) is rebuilt from it; a shorter one is sorted.
func (f *VertexSubset) Seal() {
	if f.dense || f.sorted {
		return
	}
	if len(f.sparse)*sealWalkRatio >= len(f.bits) {
		f.sparse = f.sparse[:0]
		for w, word := range f.bits {
			for ; word != 0; word &= word - 1 {
				f.sparse = append(f.sparse, uint32(w*64+bits.TrailingZeros64(word)))
			}
		}
	} else {
		slices.Sort(f.sparse)
	}
	f.sorted = true
}

// Has reports membership.
func (f *VertexSubset) Has(v uint32) bool {
	if len(f.bits) == 0 {
		return false
	}
	return f.bits[v/64]&(1<<(v%64)) != 0
}

// Count returns the number of active vertices.
func (f *VertexSubset) Count() int64 { return f.count }

// Empty reports whether no vertex is active.
func (f *VertexSubset) Empty() bool { return f.count == 0 }

// Dense reports the current representation.
func (f *VertexSubset) Dense() bool { return f.dense }

// ForEach visits active vertices in ascending order. The subset must be
// Sealed (or dense).
func (f *VertexSubset) ForEach(fn func(v uint32)) {
	if f.dense {
		for w, word := range f.bits {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				fn(uint32(w*64 + b))
				word &^= 1 << b
			}
		}
		return
	}
	for _, v := range f.sparse {
		fn(v)
	}
}

// Merge adds all members of other into f (used to combine per-proc output
// frontiers); duplicates across subsets are deduped. When both sides are
// dense the bitmaps are ORed word-wise — 64 vertices per operation — instead
// of re-inserting vertex by vertex.
func (f *VertexSubset) Merge(other *VertexSubset) {
	if other == nil || other.count == 0 {
		return
	}
	if f.dense && other.dense {
		for w, word := range other.bits {
			if fresh := word &^ f.bits[w]; fresh != 0 {
				f.bits[w] |= fresh
				f.count += int64(bits.OnesCount64(fresh))
			}
		}
		return
	}
	other.ForEach(func(v uint32) { f.Add(v) })
}

// Reset empties a dense subset (a NewBitmap one, say) in place for reuse,
// keeping its bitmap and its representation. An empty subset has no bit
// set, so Reset clears nothing.
func (f *VertexSubset) Reset() {
	if f.count == 0 {
		return
	}
	clear(f.bits)
	f.count = 0
}

// Union returns a new sealed subset over n vertices holding every member of
// parts; nil and empty parts are skipped and no part is modified or
// aliased. Every non-empty subset has a bitmap, so the parts are ORed word
// by word, the union is counted by popcount, and the result is built once,
// in the representation Add would have left it in: dense iff the count
// exceeds n/20, otherwise a sorted list of exactly count members read off
// the ORed words in one ascending walk. An empty union allocates no bitmap.
func Union(n uint32, parts []*VertexSubset) *VertexSubset {
	return UnionFrom(nil, n, parts)
}

// UnionFrom is Union building into spare, a subset its owner no longer reads
// (nil allocates one), whose bitmap and list are reused when they are large
// enough. The result is observably the one Union returns — Count, Dense,
// Has, ForEach order, sealed, Bytes (0 for an empty union) — and spare must
// not be one of parts.
func UnionFrom(spare *VertexSubset, n uint32, parts []*VertexSubset) *VertexSubset {
	out := Renew(spare, n)
	for _, p := range parts {
		if p == nil || p.count == 0 {
			continue
		}
		if len(out.bits) == 0 {
			out.bits = append(reuse(out.bits, len(p.bits)), p.bits...)
			continue
		}
		for w, word := range p.bits {
			out.bits[w] |= word
		}
	}
	for _, word := range out.bits {
		out.count += int64(bits.OnesCount64(word))
	}
	if out.count > int64(n)/denseFraction {
		out.dense = true
		return out
	}
	if out.count > 0 {
		out.sparse = reuse(out.sparse, int(out.count))
		for w, word := range out.bits {
			for ; word != 0; word &= word - 1 {
				out.sparse = append(out.sparse, uint32(w*64+bits.TrailingZeros64(word)))
			}
		}
	}
	return out
}

// Bytes returns the memory footprint of the current representation.
func (f *VertexSubset) Bytes() int64 {
	return int64(len(f.bits))*8 + int64(len(f.sparse))*4
}

// PageSubset is the per-device page frontier: the device-local IDs of every
// page holding at least one active vertex's edges, sorted ascending per
// device (§IV-C step 1).
type PageSubset struct {
	// PerDev[d] lists device-local page IDs for device d.
	PerDev [][]int64
	total  int64
}

// Pages returns the total page count across devices.
func (ps *PageSubset) Pages() int64 { return ps.total }

// PagesOf converts a sealed vertex frontier into a page frontier for a
// graph striped over numDev devices. Active vertices are visited in
// ascending ID order, so page IDs come out sorted per device, and a page
// shared by adjacent vertices is emitted once: page ranges of ascending
// vertices are monotonic, so a logical high-water mark dedups them.
func PagesOf(f *VertexSubset, c *graph.CSR, numDev int) *PageSubset {
	ps := new(PageSubset)
	ps.Fill(f, c, numDev)
	return ps
}

// Fill makes ps the page frontier PagesOf(f, c, numDev) returns, writing
// each device's list over the one ps held before: an owner that keeps a
// PageSubset from round to round grows its lists only when a frontier spans
// more pages than any before it on that device.
func (ps *PageSubset) Fill(f *VertexSubset, c *graph.CSR, numDev int) {
	if cap(ps.PerDev) < numDev {
		ps.PerDev = append(ps.PerDev[:cap(ps.PerDev)], make([][]int64, numDev-cap(ps.PerDev))...)
	}
	ps.PerDev = ps.PerDev[:numDev]
	for d := range ps.PerDev {
		ps.PerDev[d] = ps.PerDev[d][:0]
	}
	ps.total = 0
	lastLogical := int64(-1)
	f.ForEach(func(v uint32) {
		first, last, ok := c.PageRange(v)
		if !ok {
			return
		}
		if first <= lastLogical {
			first = lastLogical + 1
		}
		for pg := first; pg <= last; pg++ {
			d := int(pg % int64(numDev))
			ps.PerDev[d] = append(ps.PerDev[d], pg/int64(numDev))
			ps.total++
		}
		if last > lastLogical {
			lastLogical = last
		}
	})
}
