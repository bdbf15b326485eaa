package engine

import (
	"fmt"

	"blaze/internal/exec"
	"blaze/internal/graph"
	"blaze/internal/metrics"
	"blaze/internal/pagecache"
	"blaze/internal/ssd"
)

// Dynamic maintains a mutable graph over the static engine: edge
// insertions accumulate in an in-memory buffer, seal into immutable sorted
// delta segments (device-backed CSRs on Graph.Segs, which EdgeMap iterates
// after the base; Seal keeps their sizes geometric by merging neighbours),
// and periodically compact back into a single base CSR. The forward graph
// and, when present, its transpose are kept mirrored — every insertion s→d
// lands in the forward overlay as s→d and in the transpose overlay as d→s
// — so undirected traversals (WCC) observe insertions from both sides.
//
// Dynamic is not safe for concurrent use; the owner serializes Add, Seal,
// and Compact against queries on the wrapped graphs (segments are
// immutable once sealed, so queries may run between mutations freely).
type Dynamic struct {
	Fwd *Graph
	Tr  *Graph // optional transpose mirror (nil for directed-only use)

	ctx   exec.Context
	buf   *graph.EdgeBuffer
	prof  ssd.Profile
	stats *metrics.IOStats
	tl    *metrics.Timeline
	opts  []ssd.DeviceOptions
	cache *pagecache.Cache // invalidated on Compact; may be nil
	seals int              // monotonic: segment names stay unique across merges and compactions
	// merges and rewritten account for tiering, see Merges and Rewritten.
	merges    int
	rewritten int64
	// fwdName and trName are the names the graphs came with; compactions
	// counts Compact calls. A compacted graph is renamed <name>#c<count>.
	fwdName, trName string
	compactions     int
}

// NewDynamic wraps fwd (and optionally its transpose tr) for mutation.
// New segment arrays are striped like the base — same device count and
// profile; cache, when non-nil, is the page cache queries run with, so
// compaction can drop stale pages.
func NewDynamic(ctx exec.Context, fwd, tr *Graph, prof ssd.Profile,
	stats *metrics.IOStats, tl *metrics.Timeline, cache *pagecache.Cache,
	opts ...ssd.DeviceOptions) *Dynamic {
	dy := &Dynamic{
		Fwd: fwd, Tr: tr,
		ctx: ctx, buf: graph.NewEdgeBuffer(fwd.CSR.V),
		prof: prof, stats: stats, tl: tl, opts: opts, cache: cache,
		fwdName: fwd.Name,
	}
	if tr != nil {
		dy.trName = tr.Name
	}
	return dy
}

// Add buffers one edge insertion s→d.
func (dy *Dynamic) Add(s, d uint32) error { return dy.buf.Add(s, d) }

// Segments returns the live segment count on the forward graph.
func (dy *Dynamic) Segments() int { return len(dy.Fwd.Segs) }

// Merges returns how many seals folded older segments into the new one
// (counted on the forward graph; a transpose mirror does the same again).
func (dy *Dynamic) Merges() int { return dy.merges }

// Rewritten returns how many edges of older segments those merges wrote a
// second time, counted like Merges. Over the edges ever sealed it is the
// tiering's write amplification.
func (dy *Dynamic) Rewritten() int64 { return dy.rewritten }

// Seal turns the buffered insertions into one immutable sorted segment
// per mirrored direction and returns the sealed batch's edge list in
// arrival order — the seed set incremental repair starts from, now the
// caller's — or nils when the buffer was empty.
//
// Segments are tiered so that they do not pile up: while the newest
// segment before this seal holds fewer than twice the edges of the one
// being added, it is folded in, oldest edges first per vertex. Only
// adjacent segments ever merge and the older one's edges stay in front, so
// a vertex's logical adjacency — base, then segments in seal order — is
// the same sequence with or without tiering. What is left is strictly
// geometric (every segment at least twice its successor), so N equal
// batches leave popcount(N) ≤ ⌊log₂N⌋+1 segments for EdgeMap to open, not N.
func (dy *Dynamic) Seal() (src, dst []uint32) {
	src, dst = dy.buf.Edges()
	fwd, tr := dy.buf.Seal(dy.Tr != nil)
	if fwd == nil {
		return nil, nil
	}
	id := dy.seals
	dy.seals++
	if n := dy.push(dy.Fwd, fwd, id); n > 0 {
		dy.merges++
		dy.rewritten += n
	}
	if dy.Tr != nil {
		dy.push(dy.Tr, tr, id)
	}
	return src, dst
}

// push makes seg the newest segment of g after folding into it the
// trailing segments the tiering rule covers, and returns how many of their
// edges that rewrote. The result is named after this seal, a name no
// segment has had, so no page cache can serve it a merged-away segment's
// pages; the handed cache also drops those segments' frames, as Compact
// does for a base.
func (dy *Dynamic) push(g *Graph, seg *graph.CSR, id int) (rewritten int64) {
	keep := len(g.Segs)
	for keep > 0 && g.Segs[keep-1].CSR.E < 2*(seg.E+rewritten) {
		keep--
		rewritten += g.Segs[keep].CSR.E
	}
	if keep < len(g.Segs) {
		parts := make([]*graph.CSR, 0, len(g.Segs)-keep+1)
		for _, old := range g.Segs[keep:] {
			parts = append(parts, old.CSR)
			if dy.cache != nil {
				dy.cache.DropGraph(old.Name)
			}
		}
		seg = graph.MustMergeSegments(append(parts, seg)...)
	}
	sg := FromCSR(dy.ctx, fmt.Sprintf("%s.seg%d", g.Name, id), seg, g.Arr.NumDevices(), dy.prof, dy.stats, dy.tl, dy.opts...)
	sg.Locality = g.Locality
	// Onto a fresh backing array, so the slice a caller read before this
	// seal still lists the segments it listed then.
	g.Segs = append(g.Segs[:keep:keep], sg)
	return rewritten
}

// Compact folds every sealed segment back into its base: one
// graph.MergeSegments of the base and its segments yields a single CSR
// (base edges first, then segments in seal order — the same logical edge
// order queries were already observing), a
// fresh striped array replaces the base's, and the segment list empties.
// The base's layout moved, so the graph stops answering to the name its
// old pages were cached under: it is renamed with the compaction count, and
// every page cache — the one handed to NewDynamic and any an engine keeps
// privately — misses on the new identity instead of serving pre-compaction
// pages. The handed cache additionally drops the old base's and the
// segments' frames. Requires the base adjacency in memory (graphs loaded
// index-only from files cannot compact in place).
func (dy *Dynamic) Compact() error {
	dy.compactions++
	if err := dy.compactGraph(dy.Fwd, dy.fwdName); err != nil {
		return err
	}
	if dy.Tr != nil {
		if err := dy.compactGraph(dy.Tr, dy.trName); err != nil {
			return err
		}
	}
	return nil
}

func (dy *Dynamic) compactGraph(g *Graph, name string) error {
	if len(g.Segs) == 0 {
		return nil
	}
	parts := []*graph.CSR{g.CSR}
	for _, sg := range g.Segs {
		parts = append(parts, sg.CSR)
	}
	flat, err := graph.MergeSegments(parts...)
	if err != nil {
		return fmt.Errorf("engine: compacting %q: %w", g.Name, err)
	}
	if dy.cache != nil {
		dy.cache.DropGraph(g.Name)
		for _, sg := range g.Segs {
			dy.cache.DropGraph(sg.Name)
		}
	}
	numDev := g.Arr.NumDevices()
	g.Name = fmt.Sprintf("%s#c%d", name, dy.compactions)
	g.CSR = flat
	g.Arr = ssd.NewMemArray(dy.ctx, 0, numDev, dy.prof, flat.Adj, dy.stats, dy.tl, dy.opts...)
	g.Segs = nil
	return nil
}
