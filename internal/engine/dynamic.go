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
// delta segments (small device-backed CSRs appended to Graph.Segs, which
// EdgeMap iterates after the base), and periodically compact back into a
// single base CSR. The forward graph and, when present, its transpose are
// kept mirrored — every insertion s→d lands in the forward overlay as s→d
// and in the transpose overlay as d→s — so undirected traversals (WCC)
// observe insertions from both sides.
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
	seals int              // monotonic: segment names stay unique across compactions
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

// Pending returns the number of buffered (unsealed) insertions.
func (dy *Dynamic) Pending() int { return dy.buf.Len() }

// Segments returns the sealed segment count on the forward graph.
func (dy *Dynamic) Segments() int { return len(dy.Fwd.Segs) }

// Seal turns the buffered insertions into one immutable sorted segment
// per direction and appends them to the wrapped graphs. It returns copies
// of the sealed batch's edge list in arrival order — the seed set
// incremental repair starts from — or nils when the buffer was empty.
func (dy *Dynamic) Seal() (src, dst []uint32) {
	bs, bd := dy.buf.Edges()
	src = append([]uint32(nil), bs...)
	dst = append([]uint32(nil), bd...)
	fwd, tr := dy.buf.Seal()
	if fwd == nil {
		return nil, nil
	}
	id := dy.seals
	dy.seals++
	numDev := dy.Fwd.Arr.NumDevices()
	fg := FromCSR(dy.ctx, fmt.Sprintf("%s.seg%d", dy.Fwd.Name, id), fwd, numDev, dy.prof, dy.stats, dy.tl, dy.opts...)
	fg.Locality = dy.Fwd.Locality
	dy.Fwd.Segs = append(dy.Fwd.Segs, fg)
	if dy.Tr != nil {
		tg := FromCSR(dy.ctx, fmt.Sprintf("%s.seg%d", dy.Tr.Name, id), tr, numDev, dy.prof, dy.stats, dy.tl, dy.opts...)
		tg.Locality = dy.Tr.Locality
		dy.Tr.Segs = append(dy.Tr.Segs, tg)
	}
	return src, dst
}

// Compact folds every sealed segment back into its base: the overlay is
// flattened to a single CSR (base edges first, then segments in seal
// order — the same logical edge order queries were already observing), a
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
	v := graph.NewView(g.CSR)
	for _, sg := range g.Segs {
		if err := v.AddSeg(sg.CSR); err != nil {
			return err
		}
	}
	flat, err := v.Flatten()
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
	g.Arr = ssd.NewMemArray(dy.ctx, numDev, dy.prof, flat.Adj, dy.stats, dy.tl, dy.opts...)
	g.Segs = nil
	return nil
}
