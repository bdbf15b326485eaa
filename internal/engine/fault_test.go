package engine

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"blaze/gen"
	"blaze/internal/exec"
	"blaze/internal/fault"
	"blaze/internal/frontier"
	"blaze/internal/graph"
	"blaze/internal/metrics"
	"blaze/internal/ssd"
)

// faultyGraph is testGraph with a fault policy wrapped around every device.
func faultyGraph(ctx exec.Context, numDev int, stats *metrics.IOStats, fp fault.Policy) (*Graph, *graph.CSR) {
	p := gen.Preset{Kind: gen.KindRMAT, A: 0.57, B: 0.19, C: 0.19, Seed: 11, V: 4096, E: 60000}
	src, dst := p.Generate()
	c := graph.MustBuild(p.V, src, dst)
	return FromCSR(ctx, "faulty", c, numDev, ssd.OptaneSSD, stats, nil, fp.DeviceOptions()), c
}

// TestEdgeMapPermanentFaultReturnsError: with every page permanently
// unreadable, EdgeMap must return an error — not panic — on both backends,
// join all pipeline procs, and leave the pool reusable for further rounds.
func TestEdgeMapPermanentFaultReturnsError(t *testing.T) {
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx := be.mk()
			stats := metrics.NewIOStats(2)
			g, c := faultyGraph(ctx, 2, stats, fault.Policy{Seed: 7, PermanentRate: 1})
			conf := DefaultConfig(c.E)
			conf.Stats = stats
			conf.Pool = NewPool()
			ctx.Run("main", func(p exec.Proc) {
				// Two rounds through one pool: the failed shutdown path must
				// restock buffers and bin state so the next round still runs.
				for round := 0; round < 2; round++ {
					out, _, err := EdgeMap(ctx, p, g, frontier.All(c.V),
						func(s, d uint32) int64 { return 1 },
						func(d uint32, v int64) bool { return false },
						func(d uint32) bool { return true },
						true, conf)
					if err == nil {
						t.Errorf("round %d: EdgeMap on a dead device returned no error", round)
					}
					if out != nil {
						t.Errorf("round %d: failed EdgeMap returned a frontier", round)
					}
					var fe *fault.Error
					if !errors.As(err, &fe) {
						t.Errorf("round %d: error chain lost the injected fault: %v", round, err)
					}
				}
			})
			if stats.ReadErrors() == 0 {
				t.Error("unrecoverable errors not recorded in IOStats")
			}
			// All pipeline procs must have joined: under Sim, Run returning
			// proves it (leaked procs deadlock the scheduler); under Real,
			// check the goroutine count settles back.
			settleGoroutines(t, before, "a failed round")
		})
	}
}

// TestEdgeMapTransientFaultsRetried: transient faults within the retry
// budget are invisible to the caller — results are exact and only the
// retry counter betrays them.
func TestEdgeMapTransientFaultsRetried(t *testing.T) {
	ctx := exec.NewSim()
	stats := metrics.NewIOStats(1)
	g, c := faultyGraph(ctx, 1, stats, fault.Policy{Seed: 3, TransientRate: 0.2, TransientFails: 1})
	conf := DefaultConfig(c.E)
	conf.Stats = stats
	got := make([]int64, c.V)
	ctx.Run("main", func(p exec.Proc) {
		_, st, err := EdgeMap(ctx, p, g, frontier.All(c.V),
			func(s, d uint32) int64 { return 1 },
			func(d uint32, v int64) bool { got[d] += v; return false },
			func(d uint32) bool { return true },
			false, conf)
		if err != nil {
			t.Fatalf("EdgeMap failed despite retryable faults: %v", err)
		}
		if st.Records != c.E {
			t.Errorf("Records = %d, want %d", st.Records, c.E)
		}
	})
	want := make([]int64, c.V)
	for i := int64(0); i < c.E; i++ {
		want[graph.GetEdge(c.Adj, i)]++
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("in-degree(%d) = %d, want %d (corruption under retries)", v, got[v], want[v])
		}
	}
	if stats.Retries() == 0 {
		t.Error("transient faults at rate 0.2 triggered no retries")
	}
	if stats.ReadErrors() != 0 {
		t.Errorf("ReadErrors = %d, want 0 (all faults retryable)", stats.ReadErrors())
	}
}

// TestEdgeMapTransientBeyondBudgetFails: transient faults outlasting the
// retry budget become unrecoverable; the pipeline still shuts down cleanly
// after charging a bounded number of retries.
func TestEdgeMapTransientBeyondBudgetFails(t *testing.T) {
	ctx := exec.NewSim()
	stats := metrics.NewIOStats(1)
	// TransientFails far beyond DefaultRetryPolicy's 3 retries.
	g, c := faultyGraph(ctx, 1, stats, fault.Policy{Seed: 5, TransientRate: 1, TransientFails: 100})
	conf := DefaultConfig(c.E)
	conf.Stats = stats
	ctx.Run("main", func(p exec.Proc) {
		_, _, err := EdgeMap(ctx, p, g, frontier.All(c.V),
			func(s, d uint32) int64 { return 1 },
			func(d uint32, v int64) bool { return false },
			func(d uint32) bool { return true },
			false, conf)
		if err == nil {
			t.Fatal("exhausted retry budget did not surface an error")
		}
		if !ssd.IsTransient(err) {
			t.Errorf("surfaced error lost its transient marker: %v", err)
		}
	})
	retries, errs := stats.Retries(), stats.ReadErrors()
	if errs == 0 {
		t.Error("no unrecoverable error recorded")
	}
	// Bounded: at most MaxRetries per failed request, and the failure latch
	// stops the IO procs early rather than grinding through every page.
	max := ssd.DefaultRetryPolicy().MaxRetries
	if retries > int64(max)*(errs+stats.Requests()) {
		t.Errorf("retries = %d not bounded by budget (%d errors, %d requests)", retries, errs, stats.Requests())
	}
}

// TestEdgeMapFaultsOffIdentical: the error-handling machinery must cost
// nothing when no faults are injected — the virtual-time makespan with a
// zero policy equals the plain build's. This is the property that keeps
// the paper figures byte-identical.
func TestEdgeMapFaultsOffIdentical(t *testing.T) {
	run := func(withPolicy bool) int64 {
		ctx := exec.NewSim()
		var g *Graph
		var c *graph.CSR
		if withPolicy {
			g, c = faultyGraph(ctx, 2, nil, fault.Policy{})
		} else {
			g, c = testGraph(ctx, 2, nil)
		}
		conf := DefaultConfig(c.E)
		acc := make([]int64, c.V)
		ctx.Run("main", func(p exec.Proc) {
			_, _, err := EdgeMap(ctx, p, g, frontier.All(c.V),
				func(s, d uint32) int64 { return 1 },
				func(d uint32, v int64) bool { acc[d] += v; return false },
				func(d uint32) bool { return true },
				false, conf)
			if err != nil {
				t.Errorf("fault-free run errored: %v", err)
			}
		})
		return ctx.End
	}
	plain, zeroPolicy := run(false), run(true)
	if plain != zeroPolicy || plain == 0 {
		t.Errorf("makespan with zero policy %d != plain %d", zeroPolicy, plain)
	}
}

// TestEdgeMapNoOutputReturnsNil: output=false yields a nil frontier (not
// an allocated empty one) on both the normal and the empty-frontier path.
func TestEdgeMapNoOutputReturnsNil(t *testing.T) {
	ctx := exec.NewSim()
	g, c := testGraph(ctx, 1, nil)
	conf := DefaultConfig(c.E)
	ctx.Run("main", func(p exec.Proc) {
		for _, f := range []*frontier.VertexSubset{frontier.All(c.V), frontier.NewVertexSubset(c.V)} {
			out, _, err := EdgeMap(ctx, p, g, f,
				func(s, d uint32) int64 { return 1 },
				func(d uint32, v int64) bool { return false },
				func(d uint32) bool { return true },
				false, conf)
			if err != nil {
				t.Fatalf("EdgeMap errored: %v", err)
			}
			if out != nil {
				t.Errorf("output=false returned a non-nil frontier (count %d)", out.Count())
			}
		}
	})
}

// TestSegmentReadErrorNamesSegment: when the base graph's devices are
// healthy and a sealed segment's are dead, the error names the segment
// whose read failed, not the base graph.
func TestSegmentReadErrorNamesSegment(t *testing.T) {
	ctx := exec.NewSim()
	g, c := testGraph(ctx, 2, nil)
	dead := fault.Policy{Seed: 7, PermanentRate: 1}.DeviceOptions()
	dy := NewDynamic(ctx, g, nil, ssd.OptaneSSD, nil, nil, nil, dead)
	if err := dy.Add(0, 1); err != nil {
		t.Fatal(err)
	}
	dy.Seal()
	ctx.Run("main", func(p exec.Proc) {
		_, _, err := EdgeMap(ctx, p, g, frontier.All(c.V),
			func(s, d uint32) int64 { return 1 },
			func(d uint32, v int64) bool { return false },
			func(d uint32) bool { return true },
			false, DefaultConfig(c.E))
		var fe *fault.Error
		if !errors.As(err, &fe) {
			t.Errorf("error chain lost the injected fault: %v", err)
		} else if want := `"` + g.Segs[0].Name + `"`; !strings.Contains(err.Error(), want) {
			t.Errorf("error does not name the failed segment %s: %v", want, err)
		}
	})
}
