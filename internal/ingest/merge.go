package ingest

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"blaze/internal/graph"
)

// head is one run's next record in the merge heap: its merge key, the
// adjacency entry it contributes, and the run it came from. Runs partition
// the input by arrival time, so the run index is the sequence-number
// tie-break that restores global arrival order.
type head struct {
	key uint64
	col uint32
	run uint32
}

func (a head) less(b head) bool {
	return a.key < b.key || a.key == b.key && a.run < b.run
}

// cursor reads one run of a run file a block at a time.
type cursor struct {
	block    []byte // block[pos:] is read but not yet merged
	pos      int
	off, end int64 // the run's unread byte range in the file
}

// next returns the run's next record, or ok=false at its end.
func (c *cursor) next(f *os.File) (u uint64, ok bool, err error) {
	if c.pos == len(c.block) {
		n := min(int64(cap(c.block)), c.end-c.off)
		if n == 0 {
			return 0, false, nil
		}
		c.block = c.block[:n]
		if _, err := f.ReadAt(c.block, c.off); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, false, fmt.Errorf("ingest: reading %s: %w", f.Name(), err)
		}
		c.off += n
		c.pos = 0
	}
	u = binary.LittleEndian.Uint64(c.block[c.pos:])
	c.pos += recBytes
	return u, true, nil
}

// mergeRuns k-way merges the sorted runs stored back to back in f and
// hands w each record's adjacency entry in merged order: by (src, run)
// emitting dst for the forward file, by (dst, src, run) emitting src for
// the transpose. Each run is read through one block of block bytes, a
// whole number of records.
func mergeRuns(f *os.File, runs []int64, block int, transpose bool, w *graph.AdjWriter) error {
	cursors := make([]cursor, len(runs))
	heap := make([]head, 0, len(runs))
	var off int64
	for i, n := range runs {
		c := &cursors[i]
		*c = cursor{block: make([]byte, 0, block), off: off, end: off + n}
		off += n
		u, ok, err := c.next(f)
		if err != nil {
			return err
		}
		if ok {
			key, col := split(u, transpose)
			heap = append(heap, head{key, col, uint32(i)})
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(heap, i)
	}
	out := make([]uint32, 0, graph.EdgesPerPage)
	for len(heap) > 0 {
		top := &heap[0]
		out = append(out, top.col)
		if len(out) == cap(out) {
			if err := w.WriteEdges(out); err != nil {
				return err
			}
			out = out[:0]
		}
		u, ok, err := cursors[top.run].next(f)
		if err != nil {
			return err
		}
		if ok {
			top.key, top.col = split(u, transpose)
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(heap, 0)
	}
	return w.WriteEdges(out)
}

// split takes a record, dst<<32 | src, apart into its merge key and the
// adjacency entry it contributes.
func split(u uint64, transpose bool) (key uint64, col uint32) {
	if transpose {
		return u, uint32(u)
	}
	return u << 32, uint32(u >> 32)
}

// siftDown restores the min-heap order below h[i].
func siftDown(h []head, i int) {
	for {
		child := 2*i + 1
		if child >= len(h) {
			return
		}
		if r := child + 1; r < len(h) && h[r].less(h[child]) {
			child = r
		}
		if !h[child].less(h[i]) {
			return
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}
