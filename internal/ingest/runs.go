package ingest

import (
	"encoding/binary"
	"os"
	"path/filepath"
)

// runFormer buffers edges up to the budget and turns each full buffer into
// one sorted run per direction. The runs of a direction are appended to one
// file, all but the last the same length.
type runFormer struct {
	// buf[:n] holds the current run's records; scratch is the radix sort's
	// other buffer, and the two swap roles whenever a sort makes an odd
	// number of passes.
	buf, scratch []byte
	n            int
	// first is the run's first record and vary the bits in which any later
	// one differs from it: a digit with no varying bit needs no pass.
	first, vary uint64

	fwd, tr *os.File
	runs    []int64 // byte length of each run, the same in both files
}

func newRunFormer(dir string, capEdges int64) (*runFormer, error) {
	fwd, err := os.Create(filepath.Join(dir, "fwd.runs"))
	if err != nil {
		return nil, err
	}
	tr, err := os.Create(filepath.Join(dir, "tr.runs"))
	if err != nil {
		fwd.Close()
		return nil, err
	}
	return &runFormer{buf: make([]byte, capEdges*recBytes), fwd: fwd, tr: tr}, nil
}

// add buffers one edge, flushing the buffer as a run when it is full.
func (rf *runFormer) add(s, d uint32) error {
	u := uint64(d)<<32 | uint64(s)
	if rf.n == 0 {
		rf.first = u
	}
	rf.vary |= u ^ rf.first
	binary.LittleEndian.PutUint64(rf.buf[rf.n:], u)
	rf.n += recBytes
	if rf.n == len(rf.buf) {
		return rf.flush()
	}
	return nil
}

// flush sorts the buffered records and appends them to both run files:
// after the source digits (record bytes 0–3) they are the forward run,
// after the destination digits (bytes 4–7) the transpose run.
func (rf *runFormer) flush() error {
	if rf.n == 0 {
		return nil
	}
	// A buffer that fills is sorted against a scratch of the same size, so
	// either can buffer the next run; one that does not fill is the last.
	if len(rf.scratch) < rf.n {
		rf.scratch = make([]byte, rf.n)
	}
	a, b := rf.buf[:rf.n], rf.scratch[:rf.n]
	a, b = radixSort(a, b, 0, 4, rf.vary)
	if _, err := rf.fwd.Write(a); err != nil {
		return err
	}
	a, b = radixSort(a, b, 4, 8, rf.vary)
	if _, err := rf.tr.Write(a); err != nil {
		return err
	}
	rf.runs = append(rf.runs, int64(rf.n))
	rf.buf, rf.scratch = a[:cap(a)], b[:cap(b)]
	rf.n, rf.vary = 0, 0
	return nil
}

// release drops the buffers once run formation is over, so the merge's
// blocks replace them under the budget instead of joining them.
func (rf *runFormer) release() { rf.buf, rf.scratch = nil, nil }

func (rf *runFormer) close() {
	rf.fwd.Close()
	rf.tr.Close()
}

// radixSort stable-sorts the 8-byte records of a by their bytes lo..hi-1,
// least significant first, using b (of equal length) as the other buffer.
// It returns the sorted buffer and the spare one. Digits in which no record
// varies are skipped, so the cost follows the ids present, not their type.
func radixSort(a, b []byte, lo, hi int, vary uint64) (sorted, spare []byte) {
	for digit := lo; digit < hi; digit++ {
		shift := 8 * uint(digit)
		if vary>>shift&0xff == 0 {
			continue
		}
		var next [256]int // byte offset in b of each digit value's next record
		for i := digit; i < len(a); i += recBytes {
			next[a[i]]++
		}
		off := 0
		for v, count := range next {
			next[v] = off
			off += count * recBytes
		}
		for i := 0; i < len(a); i += recBytes {
			u := binary.LittleEndian.Uint64(a[i:])
			v := byte(u >> shift)
			binary.LittleEndian.PutUint64(b[next[v]:], u)
			next[v] += recBytes
		}
		a, b = b, a
	}
	return a, b
}
