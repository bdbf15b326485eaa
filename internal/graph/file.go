package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// On-disk format, mirroring the paper artifact's file pair:
//
//	<name>.gr.index  — header + per-vertex out-degrees (uint32 LE)
//	<name>.gr.adj.0  — packed adjacency: uint32 LE destination IDs in CSR
//	                   order; page-interleaved across SSDs at load time
//
// and the transpose pair <name>.tgr.index / <name>.tgr.adj.0.

const (
	indexMagic   = 0x424c5a47_52494458 // "BLZG RIDX"
	indexVersion = 1
)

// indexHeader is the fixed-size .gr.index prelude.
type indexHeader struct {
	Magic    uint64
	Version  uint32
	PageSize uint32
	V        uint64
	E        uint64
}

// WriteIndex writes the .gr.index file for c.
func WriteIndex(c *CSR, path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	h := indexHeader{Magic: indexMagic, Version: indexVersion, PageSize: PageSize, V: uint64(c.V), E: uint64(c.E)}
	if err := binary.Write(w, binary.LittleEndian, h); err != nil {
		return err
	}
	buf := make([]byte, 4)
	for _, d := range c.Degrees {
		binary.LittleEndian.PutUint32(buf, d)
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return w.Flush()
}

// WriteAdj writes the .gr.adj.0 file for c (requires in-memory adjacency).
func WriteAdj(c *CSR, path string) (err error) {
	if c.Adj == nil {
		return fmt.Errorf("graph: WriteAdj on index-only CSR")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if _, err := f.Write(c.Adj); err != nil {
		return err
	}
	// Pad to a whole page so device reads never hit a short tail.
	if pad := int(c.NumPages()*PageSize - int64(len(c.Adj))); pad > 0 {
		if _, err := f.Write(make([]byte, pad)); err != nil {
			return err
		}
	}
	return nil
}

// AdjWriter streams a .gr.adj.0 file in destination order, so the
// external-sort ingester can emit the adjacency directly off its merge
// stream without ever materializing it. The byte stream is identical to
// WriteAdj on the same edge order: packed little-endian uint32
// destinations followed by zero padding to a whole page.
type AdjWriter struct {
	f     *os.File
	block []byte // encoded destinations not yet written; cap is the block size
	edges int64
}

// NewAdjWriter creates (truncates) path for streaming adjacency output.
// blockBytes is what the writer holds between writes to the file, at least
// one page.
func NewAdjWriter(path string, blockBytes int) (*AdjWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	blockBytes = max(blockBytes, PageSize)
	return &AdjWriter{f: f, block: make([]byte, 0, blockBytes-blockBytes%EdgeBytes)}, nil
}

// WriteEdges appends a batch of destination IDs.
func (a *AdjWriter) WriteEdges(dsts []uint32) error {
	a.edges += int64(len(dsts))
	for len(dsts) > 0 {
		if len(a.block) == cap(a.block) {
			if err := a.flush(); err != nil {
				return err
			}
		}
		n := min(len(dsts), (cap(a.block)-len(a.block))/EdgeBytes)
		for _, d := range dsts[:n] {
			a.block = binary.LittleEndian.AppendUint32(a.block, d)
		}
		dsts = dsts[n:]
	}
	return nil
}

func (a *AdjWriter) flush() error {
	_, err := a.f.Write(a.block)
	a.block = a.block[:0]
	return err
}

// Edges returns the number of destinations written so far.
func (a *AdjWriter) Edges() int64 { return a.edges }

// Close pads the file to a whole page (matching WriteAdj) and closes it.
func (a *AdjWriter) Close() error {
	err := a.flush()
	if tail := a.edges * EdgeBytes % PageSize; err == nil && tail > 0 {
		_, err = a.f.Write(make([]byte, PageSize-tail))
	}
	if err != nil {
		a.f.Close()
		return err
	}
	return a.f.Close()
}

// WriteFiles writes both the forward pair (<base>.gr.*) and, when tr is
// non-nil, the transpose pair (<base>.tgr.*).
func WriteFiles(c *CSR, tr *CSR, base string) error {
	if err := WriteIndex(c, base+".gr.index"); err != nil {
		return err
	}
	if err := WriteAdj(c, base+".gr.adj.0"); err != nil {
		return err
	}
	if tr != nil {
		if err := WriteIndex(tr, base+".tgr.index"); err != nil {
			return err
		}
		if err := WriteAdj(tr, base+".tgr.adj.0"); err != nil {
			return err
		}
	}
	return nil
}

// ReadIndex loads a .gr.index file into an index-only CSR (no adjacency).
func ReadIndex(path string) (*CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var h indexHeader
	if err := binary.Read(r, binary.LittleEndian, &h); err != nil {
		return nil, fmt.Errorf("graph: reading %s header: %w", path, err)
	}
	if h.Magic != indexMagic {
		return nil, fmt.Errorf("graph: %s: bad magic %#x", path, h.Magic)
	}
	if h.Version != indexVersion {
		return nil, fmt.Errorf("graph: %s: unsupported version %d", path, h.Version)
	}
	if h.PageSize != PageSize {
		return nil, fmt.Errorf("graph: %s: page size %d, want %d", path, h.PageSize, PageSize)
	}
	// Validate the header against the file before trusting its sizes: the
	// degrees section must actually be present (guards a hostile or
	// truncated header from driving a huge allocation).
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	const headerBytes = 8 + 4 + 4 + 8 + 8
	if h.V > uint64(1)<<32 || int64(h.V) > (st.Size()-headerBytes)/4 {
		return nil, fmt.Errorf("graph: %s: header claims %d vertices but file has %d bytes", path, h.V, st.Size())
	}
	degrees := make([]uint32, h.V)
	raw := make([]byte, 4*1024)
	var got uint64
	for got < h.V {
		n := uint64(len(raw) / 4)
		if h.V-got < n {
			n = h.V - got
		}
		if _, err := io.ReadFull(r, raw[:n*4]); err != nil {
			return nil, fmt.Errorf("graph: %s: degrees truncated: %w", path, err)
		}
		for i := uint64(0); i < n; i++ {
			degrees[got+i] = binary.LittleEndian.Uint32(raw[i*4:])
		}
		got += n
	}
	c := NewIndexOnly(degrees)
	if uint64(c.E) != h.E {
		return nil, fmt.Errorf("graph: %s: degree sum %d != header E %d", path, c.E, h.E)
	}
	return c, nil
}

// ReadAdj loads a .gr.adj.0 file fully into memory and attaches it to the
// index-only CSR (trimming page padding). Engines that need the adjacency
// in DRAM — the in-core engine and graphene's self-placed devices — use
// this; the out-of-core engines leave the adjacency on disk via OpenAdj.
// Those engines index vertex arrays by destination, so a destination
// outside [0, V) is an error here.
func ReadAdj(path string, c *CSR) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if int64(len(data)) < c.AdjBytes() {
		return fmt.Errorf("graph: %s: size %d < adjacency %d", path, len(data), c.AdjBytes())
	}
	adj := data[:c.AdjBytes()]
	for i := int64(0); i < c.E; i++ {
		if d := GetEdge(adj, i); d >= c.V {
			return fmt.Errorf("graph: %s: edge %d: destination %d out of range %d", path, i, d, c.V)
		}
	}
	c.Adj = adj
	return nil
}

// OpenAdj opens a .gr.adj.0 file for device-backed reads, returning the
// ReaderAt and the adjacency size in bytes (excluding page padding).
func OpenAdj(path string, c *CSR) (*os.File, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	if st.Size() < c.AdjBytes() {
		f.Close()
		return nil, 0, fmt.Errorf("graph: %s: size %d < adjacency %d", path, st.Size(), c.AdjBytes())
	}
	return f, c.AdjBytes(), nil
}
