// Package algo implements the paper's five evaluation queries — BFS,
// PageRank-delta, WCC (shortcutting label propagation), SpMV, and
// Betweenness Centrality (Brandes) — against an abstract out-of-core
// engine, so the exact same query code runs on Blaze, on its
// synchronization-based variant, and on the FlashGraph-style and
// Graphene-style baselines the paper analyzes.
//
// Values propagate as float64, which represents the vertex IDs and counts
// the queries scatter exactly (IDs < 2^32 << 2^53).
package algo

import (
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/metrics"
)

// EdgeFuncs bundles the user functions of one EdgeMap call.
//
// Under the Real backend a round's scatter procs run while its gather procs
// apply records, so Scatter and Cond may read vertex state that a Gather of
// the same round writes: WCC's Scatter reads ids[s] while a Gather lowers
// ids[d]; BFS's Cond reads parent[d] and BC's forward Cond depth[d] while a
// Gather sets them; IncBFS's Scatter reads depth[s] while a Gather lowers
// depth[d]. These reads are unsynchronised by design, as in the paper, and
// the answers still equal the serial references because every such state is
// monotone. BFS's parent and BC's depth are written once, from -1: a Cond
// that reads the stale -1 passes a record the Gather then rejects, and one
// that reads the new value drops a record the Gather would have rejected
// (BC's Cond passes both -1 and the round's depth). WCC's labels and
// IncBFS's depths only fall: a Scatter that reads a value lowered this
// round sends one that is still valid (a label of the same component, the
// length of a real path), so the relaxation reaches the same fixed point,
// at most in fewer rounds. This is why the -race Pool tests run PageRank
// only under Real: its Scatter reads delta, which only the VertexMap between
// rounds writes. ROADMAP item 9's schedule-jitter table is where this is to
// be tested. DESIGN §6 has the argument at length.
type EdgeFuncs struct {
	// Scatter returns the value to propagate along edge s→d.
	Scatter func(s, d uint32) float64
	// Gather accumulates v into d's state; returning true activates d in
	// the output frontier. Engines guarantee at most one concurrent
	// Gather per destination vertex.
	Gather func(d uint32, v float64) bool
	// Cond prunes propagation: Scatter runs only when Cond(d) is true.
	Cond func(d uint32) bool
}

// System is one out-of-core graph engine.
type System interface {
	Name() string
	// EdgeMap applies fns to the edges out of frontier f on graph g,
	// returning the output frontier when output is true (nil otherwise).
	// A non-nil error means the underlying engine failed (e.g. an
	// unrecoverable device read); the frontier is nil and the traversal
	// state may be partially updated.
	EdgeMap(p exec.Proc, g *engine.Graph, f *frontier.VertexSubset, fns EdgeFuncs, output bool) (*frontier.VertexSubset, error)
	// VertexMap applies fn to the frontier in memory.
	VertexMap(p exec.Proc, f *frontier.VertexSubset, fn func(uint32) bool) *frontier.VertexSubset
	// EndIteration marks an algorithm iteration boundary (used for
	// per-iteration IO accounting, Figure 3).
	EndIteration(p exec.Proc)
	// Release hands back f, a frontier this system's EdgeMap or VertexMap
	// returned, once its holder will never read it again, so a later
	// round can build its frontier in f's storage. Only the holder of the
	// sole live reference may release it, and at most once. Systems
	// without a frontier pool drop it.
	Release(f *frontier.VertexSubset)
	// IterDeviceBytes returns per-iteration per-device read bytes
	// recorded at EndIteration calls.
	IterDeviceBytes() [][]int64
}

// IterLog provides the EndIteration bookkeeping shared by all systems.
type IterLog struct {
	Stats *metrics.IOStats
	// bytes is the log of iters epochs, each Stats' per-device bytes, one
	// after another in one slice, so recording one allocates nothing once
	// the slice has grown.
	bytes []int64
	iters int
}

// EndIteration snapshots the per-device bytes since the last call.
func (l *IterLog) EndIteration(p exec.Proc) {
	if l.Stats == nil {
		return
	}
	l.bytes = l.Stats.EndEpoch(l.bytes)
	l.iters++
}

// IterDeviceBytes returns the recorded epochs, one per-device slice each.
func (l *IterLog) IterDeviceBytes() [][]int64 {
	if l.iters == 0 {
		return nil
	}
	n := len(l.bytes) / l.iters
	epochs := make([][]int64, l.iters)
	for i := range epochs {
		epochs[i] = l.bytes[i*n : (i+1)*n : (i+1)*n]
	}
	return epochs
}

// Release drops f: it is the System method for every system that keeps no
// frontier pool, which embeds IterLog and leaves f to the garbage
// collector. Blaze overrides it.
func (l *IterLog) Release(*frontier.VertexSubset) {}

// Blaze is the paper's system: the online-binning EdgeMap engine.
type Blaze struct {
	Ctx exec.Context
	Cfg engine.Config
	IterLog
}

// NewBlaze wraps the engine as a System. An engine never runs without a
// pool: a nil cfg.Pool is filled here, so rounds after the first reuse the
// IO buffers and the bin Manager whoever built the config.
func NewBlaze(ctx exec.Context, cfg engine.Config) *Blaze {
	if cfg.Pool == nil {
		cfg.Pool = engine.NewPool()
	}
	return &Blaze{Ctx: ctx, Cfg: cfg, IterLog: IterLog{Stats: cfg.Stats}}
}

// Name implements System.
func (b *Blaze) Name() string { return "blaze" }

// EdgeMap implements System via the online-binning engine.
func (b *Blaze) EdgeMap(p exec.Proc, g *engine.Graph, f *frontier.VertexSubset, fns EdgeFuncs, output bool) (*frontier.VertexSubset, error) {
	out, _, err := engine.EdgeMap(b.Ctx, p, g, f, fns.Scatter, fns.Gather, fns.Cond, output, b.Cfg)
	return out, err
}

// Must unwraps a (value, error) pair, panicking on a non-nil error. It is a
// convenience for harnesses and tests running fault-free configurations,
// where an EdgeMap failure indicates a programming error rather than an
// expected runtime condition:
//
//	parent := algo.Must(algo.BFS(sys, p, g, src))
func Must[T any](v T, err error) T {
	if err != nil {
		panic("algo: " + err.Error())
	}
	return v
}

// Release implements System: f goes back to the engine's pool, where the
// next merged or mapped frontier over as many vertices is built in it.
func (b *Blaze) Release(f *frontier.VertexSubset) { b.Cfg.Pool.Release(f) }

// VertexMap implements System.
func (b *Blaze) VertexMap(p exec.Proc, f *frontier.VertexSubset, fn func(uint32) bool) *frontier.VertexSubset {
	return engine.VertexMap(p, f, fn, b.Cfg)
}
