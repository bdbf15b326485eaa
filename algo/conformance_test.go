// Cross-engine conformance: every engine in the registry must give the
// serial reference's answer to each catalogue query under every setting
// that should not change an answer — a page cache, a tracer, device faults
// it can retry, more devices, the smallest bin and IO budgets, a shared
// session, more machines, the real backend — and fail cleanly under faults
// it cannot. TestConformance is one table of (backend, engine, setting)
// rows; a new engine or setting is one more row. The suite lives in an
// external test package because the registry imports algo.
package algo_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/cluster"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/fault"
	"blaze/internal/graph"
	"blaze/internal/metrics"
	"blaze/internal/pagecache"
	"blaze/internal/registry"
	"blaze/internal/session"
	"blaze/internal/ssd"
	"blaze/internal/trace"
)

// conformanceEngines are the single-machine registry entries.
var conformanceEngines = []string{"blaze", "blaze-sync", "flashgraph", "graphene", "inmem"}

// conformanceTable is every engine crossed with every setting in the same
// entry, on the entry's backend.
var conformanceTable = []struct {
	backend  string
	engines  []string
	settings []string
}{
	{"sim", conformanceEngines, []string{"default", "cached", "traced", "transient", "transient-traced", "permanent", "4dev"}},
	{"sim", []string{"blaze", "blaze-sync"}, []string{"floor-budgets"}},
	{"sim", []string{"blaze", "blaze-sync", "flashgraph"}, []string{"session", "session-cached", "session-transient", "session-permanent"}},
	{"sim", []string{"blaze-scaleout"}, []string{"M1", "M2", "M4"}},
	{"real", []string{"blaze", "flashgraph"}, []string{"default"}},
	{"real", []string{"blaze-scaleout"}, []string{"M2"}},
}

// setting is what a row changes from the engine's default run.
type setting struct {
	cache   bool // a page cache covering the graph, shared by the row's queries
	traced  bool // a live tracer on every query
	session bool // the five queries run at once as one session
	fault   []ssd.DeviceOptions
	fails   bool // every query must fail, on an engine that reads a device
	numDev  int
	floor   bool // the smallest bin space and IO buffer budgets the engine accepts
	// machines is blaze-scaleout's machine count.
	machines int
	// twin names the setting whose answers this one must equal bit for bit:
	// all of them when only a tracer tells the two apart (and then the Sim
	// makespan too), the order-free ones when the schedule differs.
	twin string
}

var (
	transient = []ssd.DeviceOptions{fault.Policy{Seed: 4, TransientRate: 0.2, TransientFails: 1}.DeviceOptions()}
	permanent = []ssd.DeviceOptions{fault.Policy{Seed: 9, PermanentRate: 1}.DeviceOptions()}
)

var settings = map[string]setting{
	"default":           {},
	"cached":            {cache: true, twin: "default"},
	"traced":            {traced: true, twin: "default"},
	"transient":         {fault: transient},
	"transient-traced":  {fault: transient, traced: true, twin: "transient"},
	"permanent":         {fault: permanent, fails: true},
	"4dev":              {numDev: 4},
	"floor-budgets":     {floor: true},
	"session":           {session: true, twin: "default"},
	"session-cached":    {session: true, cache: true, twin: "default"},
	"session-transient": {session: true, cache: true, fault: transient, twin: "transient"},
	"session-permanent": {session: true, fault: permanent, fails: true},
	"M1":                {machines: 1},
	"M2":                {machines: 2, twin: "M1"},
	"M4":                {machines: 4, twin: "M1"},
}

// outcome is one query's answer under one row.
type outcome struct {
	ints   []int64   // BFS parents, WCC labels
	floats []float64 // PageRank ranks, SpMV products, BC dependencies
	err    error
	end    int64 // Sim makespan of the query's run
	events int   // trace events collected from the query's run
	io     int64 // pages read or coalesced on the query's behalf in a session
}

// conformance is the table's graph and the serial references on it.
type conformance struct {
	c                *graph.CSR
	x                []float64 // SpMV input: small integers, so every sum is exact
	depth            []int32
	labels           []uint32
	rank, y, between []float64
}

const (
	prEps   = 1e-4
	prIters = 20
)

// confQuery is one catalogue query: how a row runs it through the algo
// entry point, and how its answer is held to the serial reference.
type confQuery struct {
	run   func(sys algo.System, p exec.Proc, out, in *engine.Graph, x []float64) ([]int64, []float64, error)
	check func(f *conformance, o outcome) error
	// orderFree marks answers no schedule can change: WCC's least labels and
	// SpMV's exact integer sums. Which parent a BFS gather keeps and the
	// order PageRank and BC sum in follow the schedule, which a page cache
	// or a session changes.
	orderFree bool
}

var confQueries = map[string]confQuery{
	"bfs": {
		func(sys algo.System, p exec.Proc, out, _ *engine.Graph, _ []float64) ([]int64, []float64, error) {
			parent, err := algo.BFS(sys, p, out, 0)
			return parent, nil, err
		},
		func(f *conformance, o outcome) error {
			// Gather order may pick any parent one level up.
			if v, ok := algo.CheckParents(f.c, 0, o.ints, f.depth); !ok {
				return fmt.Errorf("vertex %d: parent %d is not one level up", v, o.ints[v])
			}
			return nil
		},
		false,
	},
	"pr": {
		func(sys algo.System, p exec.Proc, out, _ *engine.Graph, _ []float64) ([]int64, []float64, error) {
			rank, err := algo.PageRank(sys, p, out, prEps, prIters)
			return nil, rank, err
		},
		func(f *conformance, o outcome) error { return within(o.floats, f.rank, 1e-12) },
		false,
	},
	"wcc": {
		func(sys algo.System, p exec.Proc, out, in *engine.Graph, _ []float64) ([]int64, []float64, error) {
			ids, err := algo.WCC(sys, p, out, in)
			labels := make([]int64, len(ids))
			for v, id := range ids {
				labels[v] = int64(id)
			}
			return labels, nil, err
		},
		func(f *conformance, o outcome) error {
			ids := make([]uint32, len(o.ints))
			for v, id := range o.ints {
				ids[v] = uint32(id)
			}
			if !algo.SamePartition(ids, f.labels) {
				return fmt.Errorf("partition differs from union-find")
			}
			return nil
		},
		true,
	},
	"spmv": {
		func(sys algo.System, p exec.Proc, out, _ *engine.Graph, x []float64) ([]int64, []float64, error) {
			y, err := algo.SpMV(sys, p, out, x)
			return nil, y, err
		},
		func(f *conformance, o outcome) error { return within(o.floats, f.y, 0) },
		true,
	},
	"bc": {
		func(sys algo.System, p exec.Proc, out, in *engine.Graph, _ []float64) ([]int64, []float64, error) {
			dep, err := algo.BC(sys, p, out, in, 0)
			return nil, dep, err
		},
		func(f *conformance, o outcome) error { return within(o.floats, f.between, 1) },
		false,
	},
}

// within reports the first value further than 1e-6 of max(|want|, floor)
// from its reference: floor 0 is exact, the others allow the reassociation
// of a float sum.
func within(got, want []float64, floor float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, reference has %d", len(got), len(want))
	}
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-6*math.Max(math.Abs(want[v]), floor) {
			return fmt.Errorf("vertex %d: %g, reference %g", v, got[v], want[v])
		}
	}
	return nil
}

// conformanceGraph is a dense random half that BFS from 0 reaches and a
// sparse half of many small components, twelve pages of edges in all.
func conformanceGraph() *conformance {
	const n = 1024
	r := gen.NewRNG(42)
	src, dst := []uint32{0}, []uint32{1}
	for i := 0; i < 12000; i++ {
		src, dst = append(src, uint32(r.Intn(n/2))), append(dst, uint32(r.Intn(n/2)))
	}
	for i := 0; i < 400; i++ {
		src, dst = append(src, n/2+uint32(r.Intn(n/2))), append(dst, n/2+uint32(r.Intn(n/2)))
	}
	f := &conformance{c: graph.MustBuild(n, src, dst), x: make([]float64, n)}
	for i := range f.x {
		f.x[i] = float64(r.Intn(100))
	}
	f.depth = algo.RefBFSDepth(f.c, 0)
	f.labels = algo.RefWCC(f.c)
	f.rank = algo.RefPageRankDelta(f.c, prEps, prIters)
	f.y = algo.RefSpMV(f.c, f.x)
	f.between = algo.RefBC(f.c, 0)
	return f
}

// row is one (backend, engine, setting) of the table.
type row struct{ backend, engine, setting string }

func (r row) String() string { return r.backend + "/" + r.engine + "/" + r.setting }

// queries are the catalogue queries the row runs. Under the race detector
// a Real row leaves out WCC and BC: their edge functions read vertex state
// a gather of the same round writes, the benign race Blaze's edge
// functions accept (DESIGN §6).
func (r row) queries() []string {
	var names []string
	for _, q := range algo.Queries {
		if r.backend == "sim" || !raceDetector || q.Name != "wcc" && q.Name != "bc" {
			names = append(names, q.Name)
		}
	}
	return names
}

// TestConformance runs the catalogue on every row and holds each answer to
// the serial reference; a row with a twin must also give the twin's answers
// bit for bit (see setting.twin). Rows with a page cache check who used it,
// traced rows that the tracer recorded and did not move the Sim makespan,
// session rows that every query read on its own account, and rows with
// permanent faults that every query failed (inmem, which reads no device,
// must answer instead).
func TestConformance(t *testing.T) {
	for _, q := range algo.Queries {
		if _, ok := confQueries[q.Name]; !ok {
			t.Fatalf("catalogue query %q has no conformance entry", q.Name)
		}
	}
	f := conformanceGraph()
	done := map[row]map[string]outcome{}
	answers := func(t *testing.T, r row) map[string]outcome {
		if got, ok := done[r]; ok {
			return got
		}
		got := r.run(t, f)
		done[r] = got
		return got
	}
	for _, entry := range conformanceTable {
		for _, eng := range entry.engines {
			for _, set := range entry.settings {
				r := row{entry.backend, eng, set}
				s := settings[set]
				t.Run(r.String(), func(t *testing.T) {
					got := answers(t, r)
					var twin map[string]outcome
					if s.twin != "" {
						twin = answers(t, row{r.backend, r.engine, s.twin})
					}
					for _, name := range r.queries() {
						t.Run(name, func(t *testing.T) {
							o := got[name]
							if s.fails && r.engine != "inmem" {
								if o.err == nil {
									t.Error("succeeded with every page permanently faulted")
								}
								return
							}
							if o.err != nil {
								t.Fatal(o.err)
							}
							q := confQueries[name]
							if err := q.check(f, o); err != nil {
								t.Error(err)
							}
							w := twin[name]
							if twin != nil && (s.traced || q.orderFree) && (!slices.Equal(o.ints, w.ints) || !slices.Equal(o.floats, w.floats)) {
								t.Errorf("answer differs from %s's", s.twin)
							}
							if s.traced && o.end != w.end {
								t.Errorf("tracing moved the makespan: %d ns untraced, %d ns traced", w.end, o.end)
							}
							if s.traced && o.events == 0 {
								t.Error("the tracer collected no events")
							}
							if s.session && o.io == 0 {
								t.Error("no IO attributed to the query")
							}
						})
					}
				})
			}
		}
	}
}

// run runs the row's queries, each on a fresh context, graphs and engine
// (all of them at once on one session, for a session row), and returns
// their outcomes by name. A cached row's queries share one cache, which
// the blaze engines must hit and every other engine must leave untouched.
func (r row) run(t *testing.T, f *conformance) map[string]outcome {
	t.Helper()
	s := settings[r.setting]
	o := registry.Options{
		Edges:    f.c.E,
		Workers:  4,
		NumDev:   max(s.numDev, 1),
		Profile:  ssd.OptaneSSD,
		DevOpts:  s.fault,
		Machines: s.machines,
	}
	if s.floor {
		o.BinSpaceBytes, o.IOBufferBytes = 1, 1
	}
	if s.cache {
		o.PageCache = pagecache.New(1 << 30)
	}
	newCtx := func() exec.Context {
		if r.backend == "real" {
			return exec.NewReal()
		}
		return exec.NewSim()
	}
	outcomes := map[string]outcome{}
	if s.session {
		ctx := newCtx()
		out, in := confGraphs(ctx, f.c, o)
		sess, err := session.New(ctx, out, in, session.Config{Engine: r.engine, Base: o, Cache: o.PageCache})
		if err != nil {
			t.Fatal(err)
		}
		names := r.queries()
		ocs := make([]outcome, len(names))
		bodies := make([]session.Body, len(names))
		for i, name := range names {
			bodies[i] = func(p exec.Proc, q *session.Query) error {
				var err error
				ocs[i].ints, ocs[i].floats, err = confQueries[name].run(q.Sys, p, out, in, f.x)
				return err
			}
		}
		var qs []*session.Query
		ctx.Run("main", func(p exec.Proc) { qs, _ = sess.Run(p, bodies...) })
		for i, q := range qs {
			ocs[i].err = q.Err
			ocs[i].io = q.IO.PagesRead() + q.IO.CoalescedPages() + q.Cache.Snapshot().Hits
			outcomes[names[i]] = ocs[i]
		}
	} else {
		for _, name := range r.queries() {
			ctx := newCtx()
			qo := o
			if s.traced {
				qo.Tracer = trace.New(trace.Config{})
				qo.Stats = metrics.NewIOStats(qo.NumDev)
			}
			out, in := confGraphs(ctx, f.c, qo)
			sys, err := registry.New(r.engine, ctx, qo)
			if err != nil {
				t.Fatal(err)
			}
			var oc outcome
			ctx.Run("main", func(p exec.Proc) { oc.ints, oc.floats, oc.err = confQueries[name].run(sys, p, out, in, f.x) })
			if sim, ok := ctx.(*exec.Sim); ok {
				oc.end = sim.End
			}
			tr := qo.Tracer.Collect()
			oc.events = tr.Events()
			if s.traced {
				if err := traceMatchesIO(tr, qo.Stats); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
			outcomes[name] = oc
		}
	}
	if s.cache {
		st := o.PageCache.StatsDetail()
		if r.engine == "blaze" || r.engine == "blaze-sync" {
			if st.Hits == 0 {
				t.Error("the covering page cache recorded no hits")
			}
		} else if st.Hits+st.Misses != 0 {
			t.Errorf("an engine without page-cache support touched the cache: %+v", st)
		}
	}
	return outcomes
}

// traceMatchesIO checks that a trace is a complete IO record: it holds one
// dev-read span per request the devices served, and per device its spans'
// pages are the pages the device read.
func traceMatchesIO(tr *trace.Trace, stats *metrics.IOStats) error {
	var requests int64
	pages := make([]int64, stats.NumDevices())
	for _, p := range tr.Procs {
		for _, e := range p.Events {
			if e.Op == trace.OpDevRead {
				requests++
				pages[e.Dev] += e.Arg
			}
		}
	}
	if requests != stats.Requests() {
		return fmt.Errorf("trace holds %d device reads, the devices served %d", requests, stats.Requests())
	}
	for dev, b := range stats.DeviceBytes() {
		if pages[dev]*ssd.PageSize != b {
			return fmt.Errorf("device %d: trace holds %d pages read, the device read %d", dev, pages[dev], b/ssd.PageSize)
		}
	}
	return nil
}

// confGraphs builds c and its transpose on ctx over the row's devices,
// reporting their reads to o.Stats.
func confGraphs(ctx exec.Context, c *graph.CSR, o registry.Options) (out, in *engine.Graph) {
	out = engine.FromCSR(ctx, "conf", c, o.NumDev, o.Profile, o.Stats, nil, o.DevOpts...)
	in = engine.FromCSR(ctx, "conf.t", c.Transpose(), o.NumDev, o.Profile, o.Stats, nil, o.DevOpts...)
	return out, in
}

// randomCSR mirrors the in-package property tests' graph construction,
// with an explicit 0→1 edge so source 0 always has work to do.
func randomCSR(seed uint64, nEdges int) *graph.CSR {
	n := uint32(64 + seed%512)
	r := gen.NewRNG(seed)
	src := make([]uint32, nEdges)
	dst := make([]uint32, nEdges)
	src[0], dst[0] = 0, 1
	for i := 1; i < nEdges; i++ {
		src[i] = uint32(r.Intn(int(n)))
		dst[i] = uint32(r.Intn(int(n)))
	}
	return graph.MustBuild(n, src, dst)
}

// sysOn builds the named engine over its own fresh virtual-time context
// and graph pair, so engines cannot observe each other's state.
func sysOn(t *testing.T, name string, c *graph.CSR) (exec.Context, algo.System, *engine.Graph, *engine.Graph) {
	t.Helper()
	ctx := exec.NewSim()
	o := registry.Options{Edges: c.E, Workers: 4, NumDev: 1, Profile: ssd.OptaneSSD}
	out, in := confGraphs(ctx, c, o)
	sys, err := registry.New(name, ctx, o)
	if err != nil {
		t.Fatalf("registry.New(%q): %v", name, err)
	}
	return ctx, sys, out, in
}

// TestScaleoutDeterministicReplay: two same-seed runs at M=4 must agree on
// every observable — results, virtual-time makespan, and the interconnect
// counters (messages, bytes, retransmissions) — bit for bit.
func TestScaleoutDeterministicReplay(t *testing.T) {
	c := randomCSR(55, 1500)
	type obs struct {
		parent []int64
		end    int64
		net    interface{}
	}
	run := func() obs {
		ctx := exec.NewSim()
		o := registry.Options{Edges: c.E, Workers: 4, NumDev: 1, Profile: ssd.OptaneSSD, Machines: 4}
		g, _ := confGraphs(ctx, c, o)
		sys, err := registry.New("blaze-scaleout", ctx, o)
		if err != nil {
			t.Fatal(err)
		}
		var parent []int64
		ctx.Run("main", func(p exec.Proc) {
			parent = algo.Must(algo.BFS(sys, p, g, 0))
		})
		return obs{parent, ctx.End, sys.(*cluster.Cluster).NetStats()}
	}
	a, b := run(), run()
	if a.end != b.end {
		t.Errorf("makespan differs across same-seed runs: %d vs %d", a.end, b.end)
	}
	if a.net != b.net {
		t.Errorf("interconnect counters differ: %+v vs %+v", a.net, b.net)
	}
	for v := range a.parent {
		if a.parent[v] != b.parent[v] {
			t.Fatalf("parent[%d] differs: %d vs %d", v, a.parent[v], b.parent[v])
		}
	}
}
