package ingest

import (
	"fmt"
	"os"

	"blaze/internal/graph"
)

const (
	// recBytes is the footprint of one buffered edge, in memory and in a
	// run file: the little-endian uint64 dst<<32 | src.
	recBytes = 8
	// edgeMemBytes is what run formation holds per buffered edge: the
	// record and its slot in the radix sort's ping-pong scratch.
	edgeMemBytes = 2 * recBytes
	// A merge block is between one page and 1 MiB.
	minBlockBytes = graph.PageSize
	maxBlockBytes = 1 << 20
)

// Config bounds an out-of-core build.
type Config struct {
	// MaxMemBytes caps the edge-proportional memory of both phases. Run
	// formation holds the edge buffer and the sort's scratch copy of it
	// (16 B per buffered edge, so a run is MaxMemBytes/16 edges); the merge
	// holds, for each of the two directions it emits at once, one block per
	// run and one output block, each MaxMemBytes/(2·(runs+1)) bytes cut to
	// whole pages and to [one page, 1 MiB]. Only the floors can exceed the
	// cap: one edge per run, one page per block. Everything else the builder
	// holds is the semi-external minimum: two V-sized degree arrays, which
	// are excluded from the budget exactly as the engine excludes its
	// V-sized vertex data. 0 means 256 MiB.
	MaxMemBytes int64
	// TmpDir hosts the sorted run files (default os.TempDir()); a private
	// subdirectory is created and removed.
	TmpDir string
	// Vertices is the explicit vertex count; 0 derives maxID+1 (see
	// VertexCount for the error cases).
	Vertices uint32
}

func (c Config) budget() int64 {
	if c.MaxMemBytes <= 0 {
		return 256 << 20
	}
	return c.MaxMemBytes
}

// capEdges is the number of edges one run buffers under budget.
func capEdges(budget int64) int64 {
	return max(budget/edgeMemBytes, 1)
}

// blockBytes is the size of each of the 2·(runs+1) blocks the merge holds
// under budget.
func blockBytes(budget int64, runs int) int {
	b := budget / int64(2*(runs+1))
	return int(min(max(b-b%graph.PageSize, minBlockBytes), maxBlockBytes))
}

// Stats reports what a Build did.
type Stats struct {
	Vertices uint32
	Edges    int64
	Runs     int // sorted runs per direction (1 = input fit in the budget)
}

// Build streams src's edges once, forms bounded-memory sorted runs for
// both directions, external-merges them, and writes the four artifact
// files <outBase>.gr.index, <outBase>.gr.adj.0, <outBase>.tgr.index,
// <outBase>.tgr.adj.0 — byte-identical to graph.Build + Transpose +
// WriteFiles on the same input, regardless of the memory budget.
//
// Identity argument: graph.Build keeps input (arrival) order within each
// source bucket, so the forward file is the edge list in (src, seq) order.
// Build(...).Transpose() orders each destination bucket by forward-scan
// order, i.e. (src, seq) — so the transpose file is the edge list in
// (dst, src, seq) order. A run buffers a contiguous arrival window as
// records dst<<32 | src and sorts it with one stable LSD radix sort over
// the record's eight bytes: after the four source digits the buffer is in
// (src, seq) order and is written as the forward run; after the four
// destination digits it is in (dst, src, seq) order, because LSD stability
// keeps the earlier digits' order within equal later ones, and is written
// as the transpose run. Runs partition the input by arrival time, so
// merging them by (src, runIndex), respectively (dst, src, runIndex),
// restores the two global orders.
func Build(src EdgeSource, outBase string, cfg Config) (Stats, error) {
	tmp, err := os.MkdirTemp(cfg.TmpDir, "blaze-ingest-")
	if err != nil {
		return Stats{}, err
	}
	defer os.RemoveAll(tmp)
	rf, err := newRunFormer(tmp, capEdges(cfg.budget()))
	if err != nil {
		return Stats{}, err
	}
	defer rf.close()

	var fwdDeg, trDeg []uint32
	var maxID uint32
	var edges int64
	for {
		s, d, ok, err := src.Next()
		if err != nil {
			return Stats{}, err
		}
		if !ok {
			break
		}
		maxID = max(maxID, s, d)
		fwdDeg = growDeg(fwdDeg, s)
		fwdDeg[s]++
		trDeg = growDeg(trDeg, d)
		trDeg[d]++
		edges++
		if err := rf.add(s, d); err != nil {
			return Stats{}, err
		}
	}
	if err := rf.flush(); err != nil {
		return Stats{}, err
	}

	n, err := VertexCount(maxID, edges > 0, uint64(cfg.Vertices))
	if err != nil {
		return Stats{}, err
	}

	// The two directions share nothing but the run directory: merge the
	// transpose on a second goroutine while this one merges the forward.
	rf.release()
	block := blockBytes(cfg.budget(), len(rf.runs))
	trDone := make(chan error, 1)
	go func() { trDone <- emit(padDeg(trDeg, n), rf.tr, rf.runs, block, outBase+".tgr", true) }()
	fwdErr := emit(padDeg(fwdDeg, n), rf.fwd, rf.runs, block, outBase+".gr", false)
	if err := <-trDone; err != nil {
		return Stats{}, err
	}
	if fwdErr != nil {
		return Stats{}, fwdErr
	}
	return Stats{Vertices: n, Edges: edges, Runs: len(rf.runs)}, nil
}

// BuildFromFile runs Build over a plain-text edge list.
func BuildFromFile(path, outBase string, cfg Config) (Stats, error) {
	r, closer, err := OpenEdgeList(path)
	if err != nil {
		return Stats{}, err
	}
	defer closer.Close()
	return Build(r, outBase, cfg)
}

// emit writes one direction: the index from its degree array, then the
// adjacency by k-way merging the sorted runs of runFile straight into a
// streaming page writer.
func emit(deg []uint32, runFile *os.File, runs []int64, block int, base string, transpose bool) error {
	c := graph.NewIndexOnly(deg)
	if err := graph.WriteIndex(c, base+".index"); err != nil {
		return err
	}
	w, err := graph.NewAdjWriter(base+".adj.0", block)
	if err != nil {
		return err
	}
	if err := mergeRuns(runFile, runs, block, transpose, w); err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	if w.Edges() != c.E {
		return fmt.Errorf("ingest: merged %d edges, index says %d", w.Edges(), c.E)
	}
	return nil
}

func growDeg(deg []uint32, v uint32) []uint32 {
	if int(v) < len(deg) {
		return deg
	}
	nd := make([]uint32, int(v)+1, 2*(int(v)+1))
	copy(nd, deg)
	return nd
}

func padDeg(deg []uint32, n uint32) []uint32 {
	for len(deg) < int(n) {
		deg = append(deg, 0)
	}
	return deg[:n]
}
