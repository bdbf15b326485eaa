package registry

import (
	"reflect"
	"strings"
	"testing"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/baseline/flashgraph"
	"blaze/internal/baseline/graphene"
	"blaze/internal/cluster"
	"blaze/internal/costmodel"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/graph"
	"blaze/internal/inmem"
	"blaze/internal/iosched"
	"blaze/internal/metrics"
	"blaze/internal/ssd"
	"blaze/internal/syncvar"
	"blaze/internal/trace"
)

// TestSegmentsAreReadOrRefused: on an engine.Dynamic graph with a sealed
// delta segment, an engine either reads the segment (DynamicCapable: the
// inserted edge's destination receives its update) or refuses the graph
// with an error — never the base graph's answer with no error. After
// compaction every engine sees the edge.
func TestSegmentsAreReadOrRefused(t *testing.T) {
	names := []string{"blaze-sync", "flashgraph", "graphene", "inmem", "blaze-scaleout", "blaze"}
	if len(names) != len(Names()) {
		t.Fatalf("test covers %v, registry has %v", names, Names())
	}
	// A path 0→1→…→62 leaves vertex 63 without in-edges; the insertion
	// 0→63 lives only in the segment.
	const n = 64
	var src, dst []uint32
	for v := uint32(0); v+2 < n; v++ {
		src, dst = append(src, v), append(dst, v+1)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			ctx := exec.NewSim()
			g := engine.FromCSR(ctx, "g", graph.MustBuild(n, src, dst), 1, ssd.OptaneSSD, nil, nil)
			dy := engine.NewDynamic(ctx, g, nil, ssd.OptaneSSD, nil, nil, nil)
			if err := dy.Add(0, n-1); err != nil {
				t.Fatal(err)
			}
			dy.Seal()
			sys, err := New(name, ctx, Options{Edges: g.NumEdges()})
			if err != nil {
				t.Fatal(err)
			}
			reached := func(p exec.Proc) (bool, error) {
				hit := false
				_, err := sys.EdgeMap(p, g, frontier.All(n), algo.EdgeFuncs{
					Scatter: func(s, d uint32) float64 { return 1 },
					Gather: func(d uint32, v float64) bool {
						if d == n-1 {
							hit = true
						}
						return false
					},
					Cond: func(d uint32) bool { return true },
				}, false)
				return hit, err
			}
			ctx.Run("main", func(p exec.Proc) {
				hit, err := reached(p)
				switch {
				case DynamicCapable(name):
					if err != nil || !hit {
						t.Errorf("dynamic-capable engine: inserted edge seen %v, err %v", hit, err)
					}
				case err == nil:
					t.Errorf("engine ignored the sealed segment without an error (inserted edge seen: %v)", hit)
				case !strings.Contains(err.Error(), "segment"):
					t.Errorf("error does not say why the graph was refused: %v", err)
				}
				if err := dy.Compact(); err != nil {
					t.Error(err)
					return
				}
				if hit, err := reached(p); err != nil || !hit {
					t.Errorf("after compaction: inserted edge seen %v, err %v", hit, err)
				}
			})
		})
	}
}

// TestRemovedEngineIsUnknown: the barrier-free engine (removed, DESIGN.md
// §13) is an unknown-engine error that lists the six engines left. Its
// name is spelled in two halves so a grep for it over the sources stays
// empty.
func TestRemovedEngineIsUnknown(t *testing.T) {
	_, err := New("blaze-"+"async", exec.NewSim(), Options{})
	if err == nil {
		t.Fatal("the removed engine still constructs")
	}
	want := "[blaze blaze-scaleout blaze-sync flashgraph graphene inmem]"
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not list the survivors %s", err, want)
	}
}

// TestScaleoutHonoursBinningOptions: every machine of blaze-scaleout runs
// the blaze engine the options describe, so the binning and IO-buffer
// overrides reach Cluster.Cfg.Engine exactly as they reach a single-machine
// blaze, and unset ones fall to the same defaults.
func TestScaleoutHonoursBinningOptions(t *testing.T) {
	ctx := exec.NewSim()
	o := Options{Edges: 8 << 20, Machines: 2, BinCount: 64, BinSpaceBytes: 8 << 20, IOBufferBytes: 1 << 20}
	sys, err := New("blaze-scaleout", ctx, o)
	if err != nil {
		t.Fatal(err)
	}
	got := sys.(*cluster.Cluster).Cfg.Engine
	if got.BinCount != 64 || got.BinSpaceBytes != 8<<20 || got.IOBufferBytes != 1<<20 {
		t.Errorf("per-machine engine: bins %d, bin space %d, IO buffers %d; the options asked for 64, 8 MB, 1 MB",
			got.BinCount, got.BinSpaceBytes, got.IOBufferBytes)
	}
	single, err := New("blaze", ctx, Options{Edges: o.Edges})
	if err != nil {
		t.Fatal(err)
	}
	def, err := New("blaze-scaleout", ctx, Options{Edges: o.Edges, Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, unset := single.(*algo.Blaze).Cfg, def.(*cluster.Cluster).Cfg.Engine
	if unset.BinCount != want.BinCount || unset.BinSpaceBytes != want.BinSpaceBytes || unset.IOBufferBytes != want.IOBufferBytes {
		t.Errorf("unset options: scale-out engine %d/%d/%d, blaze %d/%d/%d", unset.BinCount, unset.BinSpaceBytes,
			unset.IOBufferBytes, want.BinCount, want.BinSpaceBytes, want.IOBufferBytes)
	}
}

func TestStatDevices(t *testing.T) {
	for _, c := range []struct {
		o    Options
		want int
	}{
		{Options{}, 1},
		{Options{NumDev: 4}, 4},
		{Options{NumDev: 2, Machines: 1}, 2},
		{Options{NumDev: 2, Machines: 4}, 8},
		{Options{Machines: 4}, 4},
	} {
		if got := c.o.StatDevices(); got != c.want {
			t.Errorf("StatDevices(NumDev %d, Machines %d) = %d, want %d", c.o.NumDev, c.o.Machines, got, c.want)
		}
	}
}

// TestCommonReachesEveryEngine: every engine.Common field the options set
// reaches the configuration of every registered engine — blaze-scaleout's
// through the engine each of its machines runs. The test checks delivery,
// not use: inmem reads only Model and Tracer, and graphene also Stats; the
// fields they do not read (the session fields, which only SessionCapable
// engines honour, and inmem's Stats, as it does no IO) are deliberately
// inert there.
func TestCommonReachesEveryEngine(t *testing.T) {
	model := costmodel.Default()
	model.VertexOp++
	o := Options{Model: &model, Stats: metrics.NewIOStats(1), Tracer: trace.New(trace.Config{}),
		Scheds: iosched.NewTable(), QueryID: 7, QueryCache: &metrics.CacheCounters{}}
	want := engine.Common{Model: model, Stats: o.Stats, Tracer: o.Tracer,
		Scheds: o.Scheds, QueryID: o.QueryID, QueryCache: o.QueryCache}
	fields := reflect.ValueOf(want)
	for i := 0; i < fields.NumField(); i++ {
		if fields.Field(i).IsZero() {
			t.Fatalf("engine.Common.%s is left zero by this test", fields.Type().Field(i).Name)
		}
	}
	for _, name := range Names() {
		sys, err := New(name, exec.NewSim(), o)
		if err != nil {
			t.Fatal(err)
		}
		var got engine.Common
		switch s := sys.(type) {
		case *algo.Blaze:
			got = s.Cfg.Common
		case *syncvar.System:
			got = s.Cfg.Common
		case *flashgraph.System:
			got = s.Cfg.Common
		case *graphene.System:
			got = s.Cfg.Common
		case *inmem.System:
			got = s.Cfg.Common
		case *cluster.Cluster:
			got = s.Cfg.Engine.Common
		default:
			t.Fatalf("%s: engine type %T is not covered", name, sys)
		}
		if got != want {
			t.Errorf("%s: engine.Common = %+v, the options asked for %+v", name, got, want)
		}
	}
}

// TestScaleoutHonoursBinningRatio: every blaze-scaleout machine splits its
// workers between scatter and gather by Ratio, as a single-machine blaze
// does, so the split — and with it the makespan — follows the option. The
// split is counted from the procs the machines actually spawn (one traced
// SpMV round on each of the two machines).
func TestScaleoutHonoursBinningRatio(t *testing.T) {
	p := gen.Preset{Kind: gen.KindRMAT, A: 0.55, B: 0.2, C: 0.2, Seed: 41, V: 2048, E: 30000}
	const machines = 2
	run := func(ratio float64) (scatter, gather int, makespan int64) {
		ctx := exec.NewSim()
		out, _ := engine.BuildPreset(ctx, p, 1, ssd.OptaneSSD, nil, nil)
		tr := trace.New(trace.Config{})
		sys, err := New("blaze-scaleout", ctx, Options{Edges: out.NumEdges(), Machines: machines, Ratio: ratio, Tracer: tr})
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, out.NumVertices())
		ctx.Run("main", func(p exec.Proc) {
			algo.Must(algo.SpMV(sys, p, out, x))
		})
		for _, st := range trace.Summarize(tr.Collect()).Stages {
			switch st.Stage {
			case trace.StageScatter:
				scatter = st.Procs / machines
			case trace.StageGather:
				gather = st.Procs / machines
			}
		}
		return scatter, gather, ctx.End
	}
	s1, g1, t1 := run(0.25)
	s2, g2, t2 := run(0.5)
	if s1 != 4 || g1 != 12 || s2 != 8 || g2 != 8 {
		t.Errorf("per-machine scatter:gather procs %d:%d at ratio 0.25 and %d:%d at 0.5, want 4:12 and 8:8", s1, g1, s2, g2)
	}
	if t1 == t2 {
		t.Errorf("ratio 0.25 and 0.5 both take %d ns: the machines ignore the split", t1)
	}
}

// TestSimOnlyEnginesNeedSim: blaze-sync, graphene and inmem call the user's
// gather inline from concurrent procs, which only the virtual-time backend
// makes safe, so the real backend refuses them with an error naming -sim;
// every other engine builds on both backends.
func TestSimOnlyEnginesNeedSim(t *testing.T) {
	simOnly := map[string]bool{"blaze-sync": true, "graphene": true, "inmem": true}
	for _, name := range Names() {
		if _, err := New(name, exec.NewSim(), Options{}); err != nil {
			t.Errorf("%s under Sim: %v", name, err)
		}
		_, err := New(name, exec.NewReal(), Options{})
		switch {
		case simOnly[name] && (err == nil || !strings.Contains(err.Error(), "-sim")):
			t.Errorf("%s on the real backend: err = %v, want a refusal naming -sim", name, err)
		case !simOnly[name] && err != nil:
			t.Errorf("%s on the real backend: %v", name, err)
		}
	}
}
