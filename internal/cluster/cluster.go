// Package cluster implements the scale-out design the paper sketches as
// future work (§VI): the input graph is partitioned by *destination*
// vertex, one partition per machine, each machine holding its partition on
// its own FNDs. A machine then processes only the edges whose destinations
// it owns, and — because bin ownership follows destinations — all value
// propagation between scatter and gather procs stays machine-local; the
// network is needed only between iterations, to exchange updated vertex
// values and the new frontier.
//
// The model: M machines, each with its own device array and compute procs,
// all under one virtual-time context (machines genuinely overlap in
// simulated time). After each EdgeMap, machine m serializes the updated
// vertices it owns — the FlashGraph-style sparse delta, 12 bytes per
// (vertex, value) — and sends one copy to each of the other M-1 machines
// over the msg.Net interconnect (full-duplex links, bandwidth + latency +
// injectable faults charged in model time). Every machine decodes the M-1
// peer messages it receives into its view of the global update set, and
// the coordinator builds the next frontier from machine 0's local updates
// merged with the deltas machine 0 decoded off the wire, so all but 1/M of
// the frontier genuinely round-tripped through serialization. The Cluster
// implements algo.System, so all five paper queries run on it unchanged
// and are verified against the serial references.
//
// Failure semantics follow the PR 2 taxonomy: device faults drain the
// failing machine's local engine and surface through EdgeMap's error;
// link faults are retransmitted while transient and surface a permanent
// *msg.LinkError otherwise. A machine that fails locally still sends an
// abort notice to every peer (and a dead link substitutes a failure-
// detector notice), so each machine always receives exactly M-1 messages
// per exchange and every proc joins — no goroutine leaks, no hangs.
package cluster

import (
	"fmt"
	"math"

	"blaze/algo"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/graph"
	"blaze/internal/metrics"
	"blaze/internal/msg"
	"blaze/internal/pipeline"
	"blaze/internal/ssd"
)

// Config parameterizes the cluster.
type Config struct {
	// Machines is the machine count M.
	Machines int
	// DevicesPerMachine and Profile describe each machine's local array.
	DevicesPerMachine int
	Profile           ssd.Profile
	// NetBandwidth is each link direction's bandwidth in bytes/second
	// (default 25 Gb/s) and NetLatencyNs the per-message latency.
	NetBandwidth float64
	NetLatencyNs int64
	// LinkFault injects deterministic link failures into the interconnect
	// (zero value: none); see msg.LinkPolicy.
	LinkFault msg.LinkPolicy
	// DevOpts configures the per-machine devices the cluster builds
	// (fault injection wraps each machine's backings independently; the
	// dev argument is the global device ID m*DevicesPerMachine+d).
	DevOpts []ssd.DeviceOptions
	// Engine is the engine every machine runs: its scatter/gather split,
	// binning, IO buffers and cost model. Stats must be sized to at least
	// Machines*DevicesPerMachine devices (EdgeMap errors otherwise).
	Engine engine.Config
}

// DefaultConfig returns an M-machine cluster of one-Optane machines with
// 16 compute workers each (8 scatter, 8 gather) and a 25 Gb/s network.
func DefaultConfig(machines int, e int64) Config {
	return Config{
		Machines:          machines,
		DevicesPerMachine: 1,
		Profile:           ssd.OptaneSSD,
		NetBandwidth:      25e9 / 8,
		NetLatencyNs:      10_000,
		Engine:            engine.DefaultConfig(e),
	}
}

// Cluster is the scale-out system; it implements algo.System.
type Cluster struct {
	Ctx exec.Context
	Cfg Config
	algo.IterLog

	parts map[*graph.CSR][]*engine.Graph // full graph -> per-machine partitions
	net   *msg.Net
	stats *metrics.IOStats
	vals  []float64 // gathered values, indexed by vertex (owners disjoint)
}

// New builds a cluster under ctx. Every machine's EdgeMap runs on
// cfg.Engine, so all of them draw from its one run pool; a nil Pool is
// filled here, as algo.NewBlaze does for a single engine.
func New(ctx exec.Context, cfg Config) *Cluster {
	if cfg.Machines < 1 {
		cfg.Machines = 1
	}
	if cfg.Engine.Pool == nil {
		cfg.Engine.Pool = engine.NewPool()
	}
	return &Cluster{
		Ctx:     ctx,
		Cfg:     cfg,
		IterLog: algo.IterLog{Stats: cfg.Engine.Stats},
		parts:   map[*graph.CSR][]*engine.Graph{},
		stats:   cfg.Engine.Stats,
		net: msg.New(ctx, msg.Config{
			Machines:  cfg.Machines,
			Bandwidth: cfg.NetBandwidth,
			LatencyNs: cfg.NetLatencyNs,
			Fault:     cfg.LinkFault,
		}),
	}
}

// Name implements algo.System.
func (cl *Cluster) Name() string { return fmt.Sprintf("blaze-scaleout-%dx", cl.Cfg.Machines) }

// NetStats snapshots the interconnect counters (delivered messages and
// wire bytes, retransmissions, link failures).
func (cl *Cluster) NetStats() msg.NetStats { return cl.net.Stats() }

// owner returns the machine owning vertex v's data. Ownership hashes the
// vertex ID: neither range nor plain modular partitioning balances edges
// on R-MAT graphs, whose self-similar construction skews every bit of the
// destination ID (both put ~58% of edges on one of four machines). A mixed
// hash spreads the in-degree mass evenly, which is what the paper's
// destination-partitioned scale-out sketch needs to avoid re-creating the
// skew problems of §III at cluster scale.
func (cl *Cluster) owner(v, n uint32) int {
	x := uint64(v)
	x = (x ^ (x >> 16)) * 0x45d9f3b
	x = (x ^ (x >> 16)) * 0x45d9f3b
	x ^= x >> 16
	return int(x % uint64(cl.Cfg.Machines))
}

// partitionsFor lazily builds the destination partitions of one graph.
// Machine m's partition keeps every edge (s,d) with owner(d) == m over the
// full vertex ID space, placed on m's own striped device array, whose
// devices take the global IDs m·D … m·D+D−1.
func (cl *Cluster) partitionsFor(g *engine.Graph) ([]*engine.Graph, error) {
	if ps, ok := cl.parts[g.CSR]; ok {
		return ps, nil
	}
	c := g.CSR
	if c.Adj == nil {
		return nil, fmt.Errorf("cluster: graph %q has no in-memory adjacency to partition (load it with ReadAdj)", g.Name)
	}
	M := cl.Cfg.Machines
	if cl.stats != nil && cl.stats.NumDevices() < M*cl.Cfg.DevicesPerMachine {
		return nil, fmt.Errorf("cluster: IOStats sized for %d devices, need %d (machines x devices)",
			cl.stats.NumDevices(), M*cl.Cfg.DevicesPerMachine)
	}
	srcs := make([][]uint32, M)
	dsts := make([][]uint32, M)
	for v := uint32(0); v < c.V; v++ {
		b, e := c.EdgeRange(v)
		for i := b; i < e; i++ {
			d := graph.GetEdge(c.Adj, i)
			m := cl.owner(d, c.V)
			srcs[m] = append(srcs[m], v)
			dsts[m] = append(dsts[m], d)
		}
	}
	D := cl.Cfg.DevicesPerMachine
	ps := make([]*engine.Graph, M)
	for m := 0; m < M; m++ {
		sub := graph.MustBuild(c.V, srcs[m], dsts[m])
		ps[m] = &engine.Graph{
			Name:     fmt.Sprintf("%s@m%d", g.Name, m),
			CSR:      sub,
			Arr:      ssd.NewMemArray(cl.Ctx, m*D, D, cl.Cfg.Profile, sub.Adj, cl.stats, nil, cl.Cfg.DevOpts...),
			Locality: g.Locality,
			HotFrac:  g.HotFrac,
		}
	}
	cl.parts[g.CSR] = ps
	return ps, nil
}

// exchangeResult is one machine's end-of-round state: its local output
// frontier, the peer updates it decoded off the wire, and any failure.
type exchangeResult struct {
	out     *frontier.VertexSubset // local engine output (owned vertices)
	recv    *frontier.VertexSubset // peer updates decoded from messages
	err     error                  // local engine or link failure
	aborted bool                   // a peer reported failure this round
}

// exchange runs one machine's side of the all-to-all delta exchange: one
// sparse-delta message to each of the M-1 peers (or an abort notice when
// the local engine failed), then exactly M-1 receives, decoding peer
// deltas into r.recv. Encoding and decoding charge one VertexOp per update
// in model time. The message-per-peer invariant — every failure path in
// msg.Net substitutes a notice — is what guarantees the receive loop
// always completes.
func (cl *Cluster) exchange(mp exec.Proc, machine int, v uint32, r *exchangeResult) {
	M := cl.Cfg.Machines
	var payload []byte
	if r.err == nil {
		r.out.Seal()
		payload = make([]byte, 0, r.out.Count()*msg.DeltaBytes)
		r.out.ForEach(func(u uint32) {
			payload = msg.AppendDelta(payload, u, cl.vals[u])
		})
		mp.Advance(cl.Cfg.Engine.Model.VertexOp * r.out.Count())
	}
	for k := 0; k < M; k++ {
		if k == machine {
			continue
		}
		var sendErr error
		if r.err != nil {
			sendErr = cl.net.Send(mp, machine, k, msg.TypeAbort, []byte(r.err.Error()))
		} else {
			sendErr = cl.net.Send(mp, machine, k, msg.TypeDeltas, payload)
		}
		if sendErr != nil && r.err == nil {
			r.err = fmt.Errorf("cluster: machine %d sending to %d: %w", machine, k, sendErr)
		}
	}
	r.recv = frontier.NewVertexSubset(v)
	for i := 0; i < M-1; i++ {
		m, ok := cl.net.Recv(mp, machine)
		if !ok {
			if r.err == nil {
				r.err = fmt.Errorf("cluster: machine %d: interconnect closed mid-round", machine)
			}
			return
		}
		switch m.Type {
		case msg.TypeDeltas:
			mp.Advance(cl.Cfg.Engine.Model.VertexOp * int64(msg.DeltaCount(m.Payload)))
			// Decoded values are checked against the owner's gathered value
			// rather than written back: every machine decodes the same
			// message, so writing would race, and the bit-compare doubles
			// as an end-to-end payload integrity check.
			if err := msg.DecodeDeltas(m.Payload, func(u uint32, val float64) {
				r.recv.Add(u)
				if r.err == nil && math.Float64bits(cl.vals[u]) != math.Float64bits(val) {
					r.err = fmt.Errorf("cluster: machine %d: delta for vertex %d from machine %d does not match owner value", machine, u, m.From)
				}
			}); err != nil && r.err == nil {
				r.err = fmt.Errorf("cluster: machine %d from %d: %w", machine, m.From, err)
			}
		case msg.TypeAbort, msg.TypeLinkDown:
			r.aborted = true
		}
	}
	r.recv.Seal()
}

// EdgeMap implements algo.System: every machine runs the local engine over
// its destination partition concurrently; when the round produces a
// frontier, each machine serializes its owned updates as one sparse-delta
// message per peer, decodes the M-1 messages it receives, and the
// coordinator merges machine 0's local updates with the deltas machine 0
// decoded off the wire into the next frontier.
func (cl *Cluster) EdgeMap(p exec.Proc, g *engine.Graph, f *frontier.VertexSubset,
	fns algo.EdgeFuncs, output bool) (*frontier.VertexSubset, error) {

	if err := g.RequireStatic(cl.Name()); err != nil {
		return nil, err
	}
	parts, err := cl.partitionsFor(g)
	if err != nil {
		return nil, err
	}
	M := cl.Cfg.Machines
	f.Seal()

	// The exchanged delta is (vertex, gathered value): capture each
	// accepted gather's value so it can be serialized. Owners are disjoint
	// and the engine runs at most one concurrent gather per destination,
	// so the shared array is race-free.
	gather := fns.Gather
	if output && M > 1 {
		if int64(len(cl.vals)) < int64(g.CSR.V) {
			cl.vals = make([]float64, g.CSR.V)
		}
		vals := cl.vals
		gather = func(d uint32, v float64) bool {
			if fns.Gather(d, v) {
				vals[d] = v
				return true
			}
			return false
		}
	}

	// Machines fail independently; each machine's local engine drains its
	// own pipeline and the exchange always completes (see exchange), so
	// every machine proc joins. The first failure (by machine index) is
	// the one reported.
	res := make([]exchangeResult, M)
	wg := cl.Ctx.NewWaitGroup()
	wg.Add(M)
	for m := 0; m < M; m++ {
		machine := m
		cl.Ctx.Go(fmt.Sprintf("machine%d", machine), func(mp exec.Proc) {
			out, _, err := engine.EdgeMap(cl.Ctx, mp, parts[machine], f,
				fns.Scatter, gather, fns.Cond, output, cl.Cfg.Engine)
			r := &res[machine]
			r.out = out
			if err != nil {
				r.err = fmt.Errorf("cluster: machine %d: %w", machine, err)
			}
			if output && M > 1 {
				cl.exchange(mp, machine, g.CSR.V, r)
			}
			wg.Done(mp)
		})
	}
	wg.Wait(p)
	var sawAbort bool
	for m := range res {
		if res[m].err != nil {
			return nil, res[m].err
		}
		sawAbort = sawAbort || res[m].aborted
	}
	if sawAbort {
		// A peer signaled failure but no machine recorded one — the abort
		// sender must have errored, so this is unreachable unless the
		// protocol broke.
		return nil, fmt.Errorf("cluster: abort notice received with no failing machine")
	}
	if !output {
		return nil, nil
	}
	// The coordinator is colocated with machine 0: its own updates are
	// local, every other machine's arrive as decoded wire deltas (recv is
	// nil on one machine).
	merged := pipeline.MergeFrontiers(g.CSR.V, []*frontier.VertexSubset{res[0].out, res[0].recv})
	if M > 1 {
		// Every machine must have assembled the same global update set
		// (its own plus M-1 decoded messages); ownership makes the parts
		// disjoint, so counts add. A mismatch means the exchange lost or
		// duplicated a delta.
		want := merged.Count()
		for m := range res {
			if got := res[m].out.Count() + res[m].recv.Count(); got != want {
				return nil, fmt.Errorf("cluster: machine %d assembled %d updates, coordinator %d", m, got, want)
			}
		}
	}
	// Each machine's own frontier came from the shared pool and is read no
	// more: the next round's machines build theirs in it.
	for m := range res {
		cl.Cfg.Engine.Pool.Release(res[m].out)
	}
	return merged, nil
}

// VertexMap implements algo.System: vertex data is sharded by owner, so
// machines apply fn to their shards in parallel; the phase ends when the
// busiest machine finishes.
func (cl *Cluster) VertexMap(p exec.Proc, f *frontier.VertexSubset, fn func(uint32) bool) *frontier.VertexSubset {
	f.Seal()
	out := frontier.NewVertexSubset(f.N())
	perOwner := make([]int64, cl.Cfg.Machines)
	f.ForEach(func(v uint32) {
		perOwner[cl.owner(v, f.N())]++
		if fn(v) {
			out.Add(v)
		}
	})
	var maxShare int64
	for _, n := range perOwner {
		if n > maxShare {
			maxShare = n
		}
	}
	e := cl.Cfg.Engine
	p.Advance(e.Model.VertexOp * maxShare / int64(e.ScatterProcs+e.GatherProcs))
	out.Seal()
	return out
}
