// Package registry names the EdgeMap engines and constructs any of them
// as an algo.System from one set of common options. Every entry point that
// selects an engine — the cmd tools' -engine flag, the benchmark harness,
// the examples — goes through this one table, so a new engine becomes
// available everywhere with a sink implementation plus one Register call.
//
// Registered engines:
//
//	blaze          the online-binning engine (the paper's system)
//	blaze-sync     the synchronization-based variant
//	blaze-scaleout M destination-partitioned machines, each running the
//	               blaze engine on its own device array, exchanging sparse
//	               vertex deltas over a modeled interconnect (see
//	               internal/cluster; Options.Machines/NetBandwidth/
//	               NetLatencyNs, adjacency required for partitioning)
//	flashgraph     the FlashGraph-style message-passing baseline
//	graphene       the Graphene-style paired IO/compute baseline
//	inmem          the Ligra-style in-core engine (no IO; needs adjacency
//	               in memory, as do graphene's self-placed devices)
//
// blaze-sync, graphene and inmem model their atomic updates and are built
// under the virtual-time backend only (Info.SimOnly).
package registry

import (
	"fmt"
	"sort"

	"blaze/algo"
	"blaze/internal/baseline/flashgraph"
	"blaze/internal/baseline/graphene"
	"blaze/internal/cluster"
	"blaze/internal/costmodel"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/inmem"
	"blaze/internal/iosched"
	"blaze/internal/metrics"
	"blaze/internal/pagecache"
	"blaze/internal/ssd"
	"blaze/internal/syncvar"
	"blaze/internal/trace"
)

// Options is the engine-independent configuration surface. Zero values
// mean "engine default": 16 workers, 0.5 scatter ratio, one device, the
// Optane profile, the default cost model.
type Options struct {
	// Edges sizes the Blaze bin-space heuristic (~5 bytes/edge); pass the
	// graph's edge count.
	Edges int64
	// Workers is the computation thread budget (split scatter/gather for
	// blaze and for each blaze-scaleout machine, message owners for
	// flashgraph, halved into IO+compute pairs for graphene).
	Workers int
	// Ratio is Blaze's scatter fraction of Workers.
	Ratio float64
	// NumDev is the device count (graphene builds its own devices; the
	// others read the graph's striped array).
	NumDev int
	// Profile is the modeled device, for engines that build devices.
	Profile ssd.Profile
	// Model overrides the cost model (nil = costmodel.Default()).
	Model *costmodel.Model
	// Stats receives IO accounting; Mem receives memory accounting.
	Stats *metrics.IOStats
	Mem   *metrics.MemAccount

	// BinCount / BinSpaceBytes / IOBufferBytes override Blaze's binning
	// and IO budget (0 = defaults).
	BinCount      int
	BinSpaceBytes int64
	IOBufferBytes int64
	// CacheBytes overrides flashgraph's built-in LRU page-cache budget
	// (0 = its 64 MB default).
	CacheBytes int64
	// PageCache optionally puts a shared page cache in front of the blaze
	// engines.
	PageCache *pagecache.Cache
	// Pool retains blaze IO/bin buffers across EdgeMap rounds, and across
	// engines that share it (a session sets its own on every query).
	Pool *engine.Pool
	// DevOpts configures devices the engine builds itself (graphene).
	DevOpts []ssd.DeviceOptions
	// Tracer, when non-nil, attaches per-proc trace rings to every engine's
	// pipeline stages (see internal/trace); enable it to collect span
	// timelines and stage statistics.
	Tracer *trace.Tracer

	// Machines, NetBandwidth and NetLatencyNs configure blaze-scaleout:
	// the destination-partition count (default 1), each link direction's
	// bandwidth in bytes/second (0 = 25 Gb/s) and the per-message latency
	// (0 = 10 µs). Stats, when non-nil, must be sized to StatDevices()
	// devices. The other engines ignore all three.
	Machines     int
	NetBandwidth float64
	NetLatencyNs int64

	// Scheds, QueryID and QueryCache are the session-aware construction
	// surface (see internal/session): when Scheds is non-nil the engine
	// instance executes as query QueryID of a shared graph session —
	// device reads route through the per-device shared schedulers
	// (cross-query coalescing + DRR bandwidth sharing), cache admissions
	// are charged to the query's quota, and QueryCache (optional) receives
	// the query's attributed cache counters. Only session-capable engines
	// (see SessionCapable) honor these.
	Scheds     *iosched.Table
	QueryID    int32
	QueryCache *metrics.CacheCounters
}

// WithDefaults fills the zero fields that have an engine default: 16
// workers, a 0.5 scatter ratio, one device and the Optane profile. New
// applies it; a front end that sizes devices or IO stats from the options
// before calling New applies it first.
func (o Options) WithDefaults() Options {
	if o.Workers == 0 {
		o.Workers = 16
	}
	if o.Ratio == 0 {
		o.Ratio = 0.5
	}
	if o.NumDev == 0 {
		o.NumDev = 1
	}
	if o.Profile.RandBytesPerSec == 0 {
		o.Profile = ssd.OptaneSSD
	}
	return o
}

// StatDevices returns the device count Stats must cover: blaze-scaleout
// gives each of its Machines an array of NumDev devices (machine m's are
// device IDs m*NumDev … m*NumDev+NumDev-1); with Machines unset it is the
// graph's one array.
func (o Options) StatDevices() int {
	return max(o.NumDev, 1) * max(o.Machines, 1)
}

// common is the part of every engine's configuration that all engines take
// the same way; each builder sets it in one assignment.
func (o Options) common() engine.Common {
	m := costmodel.Default()
	if o.Model != nil {
		m = *o.Model
	}
	return engine.Common{
		Model:      m,
		Stats:      o.Stats,
		Tracer:     o.Tracer,
		Scheds:     o.Scheds,
		QueryID:    o.QueryID,
		QueryCache: o.QueryCache,
	}
}

// BlazeConfig is the shared engine.Config construction for the blaze and
// blaze-sync entries and for every machine of blaze-scaleout.
func (o Options) BlazeConfig() engine.Config {
	cfg := engine.DefaultConfig(o.Edges).WithThreads(o.Workers, o.Ratio)
	cfg.Common = o.common()
	cfg.Mem = o.Mem
	cfg.Pool = o.Pool
	cfg.PageCache = o.PageCache
	if o.BinCount > 0 {
		cfg.BinCount = o.BinCount
	}
	if o.BinSpaceBytes > 0 {
		cfg.BinSpaceBytes = o.BinSpaceBytes
	}
	if o.IOBufferBytes > 0 {
		cfg.IOBufferBytes = o.IOBufferBytes
	}
	return cfg
}

// Builder constructs one engine from the common options.
type Builder func(ctx exec.Context, o Options) algo.System

// Info is one registry entry.
type Info struct {
	New Builder
	// NeedsAdjacency marks engines that read the CSR adjacency from DRAM
	// (the in-core traversal, graphene's self-placed devices): loaders
	// must attach c.Adj before running them on a file-backed graph.
	NeedsAdjacency bool
	// SessionCapable marks engines that honor Options.Scheds — i.e. read
	// the session graph's striped array through pipeline.Open and can
	// therefore share devices with concurrent queries. Graphene places its
	// own devices and inmem does no IO; neither can join a session.
	SessionCapable bool
	// DynamicCapable marks engines whose EdgeMap iterates Graph.Segs — the
	// sealed delta segments an engine.Dynamic overlay appends — so queries
	// observe edge insertions without a rebuild. The sync variant, the
	// baselines, inmem and the scale-out engine read the base CSR only, and
	// their EdgeMap rejects a graph that carries segments
	// (engine.Graph.RequireStatic).
	DynamicCapable bool
	// SimOnly marks engines whose procs call the user's gather inline and
	// concurrently, modeling the atomic update rather than performing it.
	// They are correct only under exec.Sim, which runs one proc at a time,
	// so New refuses them on any other context.
	SimOnly bool
}

var engines = map[string]Info{}

// Register adds an engine under name; a new engine needs only its sink
// implementation and this one call. Duplicate names panic at init time.
func Register(name string, info Info) {
	if _, dup := engines[name]; dup {
		panic(fmt.Sprintf("registry: duplicate engine %q", name))
	}
	engines[name] = info
}

// New constructs the named engine. Unknown names list the alternatives; a
// SimOnly engine on a context other than exec.Sim is refused.
func New(name string, ctx exec.Context, o Options) (algo.System, error) {
	e, ok := engines[name]
	if !ok {
		return nil, fmt.Errorf("registry: unknown engine %q (have %v)", name, Names())
	}
	if _, sim := ctx.(*exec.Sim); e.SimOnly && !sim {
		return nil, fmt.Errorf("registry: engine %q models its atomic updates and answers correctly only under the virtual-time backend (-sim)", name)
	}
	return e.New(ctx, o.WithDefaults()), nil
}

// NeedsAdjacency reports whether the named engine requires in-memory
// adjacency; unknown names report false (New will fail anyway).
func NeedsAdjacency(name string) bool {
	return engines[name].NeedsAdjacency
}

// SessionCapable reports whether the named engine can execute as one
// query of a shared graph session; unknown names report false.
func SessionCapable(name string) bool {
	return engines[name].SessionCapable
}

// DynamicCapable reports whether the named engine iterates a graph's
// sealed delta segments (engine.Dynamic overlays); unknown names report
// false.
func DynamicCapable(name string) bool {
	return engines[name].DynamicCapable
}

// SessionNames returns the session-capable engine names, sorted.
func SessionNames() []string {
	names := make([]string, 0, len(engines))
	for n, e := range engines {
		if e.SessionCapable {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Names returns the registered engine names, sorted.
func Names() []string {
	names := make([]string, 0, len(engines))
	for n := range engines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register("blaze", Info{SessionCapable: true, DynamicCapable: true, New: func(ctx exec.Context, o Options) algo.System {
		return algo.NewBlaze(ctx, o.BlazeConfig())
	}})
	Register("blaze-sync", Info{SessionCapable: true, SimOnly: true, New: func(ctx exec.Context, o Options) algo.System {
		return syncvar.New(ctx, o.BlazeConfig())
	}})
	Register("flashgraph", Info{SessionCapable: true, New: func(ctx exec.Context, o Options) algo.System {
		cfg := flashgraph.DefaultConfig()
		cfg.Common = o.common()
		cfg.ComputeWorkers = o.Workers
		if o.CacheBytes > 0 {
			cfg.CacheBytes = o.CacheBytes
		}
		return flashgraph.New(ctx, cfg)
	}})
	Register("blaze-scaleout", Info{NeedsAdjacency: true, New: func(ctx exec.Context, o Options) algo.System {
		cfg := cluster.DefaultConfig(o.Machines, o.Edges)
		cfg.DevicesPerMachine = o.NumDev
		cfg.Profile = o.Profile
		if o.NetBandwidth > 0 {
			cfg.NetBandwidth = o.NetBandwidth
		}
		if o.NetLatencyNs > 0 {
			cfg.NetLatencyNs = o.NetLatencyNs
		}
		cfg.DevOpts = o.DevOpts
		// Every machine runs the blaze engine the options describe: Workers
		// split by Ratio, bins, IO buffers, page cache, pool.
		cfg.Engine = o.BlazeConfig()
		return cluster.New(ctx, cfg)
	}})
	Register("graphene", Info{NeedsAdjacency: true, SimOnly: true, New: func(ctx exec.Context, o Options) algo.System {
		cfg := graphene.DefaultConfig(o.NumDev)
		cfg.Common = o.common()
		cfg.Pairs = max(o.Workers/2, 1)
		cfg.DevOpts = o.DevOpts
		return graphene.New(ctx, cfg, o.Profile)
	}})
	Register("inmem", Info{NeedsAdjacency: true, SimOnly: true, New: func(ctx exec.Context, o Options) algo.System {
		cfg := inmem.DefaultConfig()
		cfg.Common = o.common()
		cfg.Workers = o.Workers
		return inmem.New(ctx, cfg)
	}})
}
