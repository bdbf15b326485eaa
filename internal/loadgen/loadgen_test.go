package loadgen

import (
	"math"
	"reflect"
	"testing"

	"blaze/gen"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/graph"
	"blaze/internal/server"
	"blaze/internal/session"
	"blaze/internal/ssd"
)

func testClasses(interactiveNs, batchNs int64) []Class {
	body := func(ns int64) session.Body {
		return func(p exec.Proc, q *session.Query) error {
			p.Advance(ns)
			return nil
		}
	}
	return []Class{
		{Name: "lookup", Priority: server.Interactive, Weight: 3,
			TimeoutNs: 5 * interactiveNs, Body: body(interactiveNs)},
		{Name: "scan", Priority: server.Batch, Weight: 1, Body: body(batchNs)},
	}
}

// TestArrivalsDeterministic: the same config replays the exact same
// schedule; a different seed diverges.
func TestArrivalsDeterministic(t *testing.T) {
	cfg := Config{RatePerSec: 1000, Requests: 1, Seed: 7, Classes: testClasses(1, 1)}
	for _, proc := range []Process{Poisson, Bursty} {
		cfg.Process = proc
		a, b := NewArrivals(cfg), NewArrivals(cfg)
		diverged := false
		other := NewArrivals(Config{RatePerSec: 1000, Requests: 1, Seed: 8,
			Process: proc, Classes: cfg.Classes})
		for i := 0; i < 1000; i++ {
			w1, c1 := a.Next()
			w2, c2 := b.Next()
			if w1 != w2 || c1 != c2 {
				t.Fatalf("%v: draw %d differs across identical configs: (%d,%d) vs (%d,%d)",
					proc, i, w1, c1, w2, c2)
			}
			if w3, c3 := other.Next(); w3 != w1 || c3 != c1 {
				diverged = true
			}
		}
		if !diverged {
			t.Errorf("%v: different seeds produced identical schedules", proc)
		}
	}
}

// TestArrivalsMeanRateAndMix: both processes hold the configured long-run
// mean rate, and class draws follow the weights.
func TestArrivalsMeanRateAndMix(t *testing.T) {
	const n = 50000
	for _, proc := range []Process{Poisson, Bursty} {
		cfg := Config{RatePerSec: 2000, Requests: n, Seed: 13, Process: proc,
			Classes: testClasses(1, 1)}
		a := NewArrivals(cfg)
		var totalNs int64
		counts := make([]int, len(cfg.Classes))
		for i := 0; i < n; i++ {
			w, c := a.Next()
			totalNs += w
			counts[c]++
		}
		mean := float64(totalNs) / n
		want := 1e9 / cfg.RatePerSec
		if mean < 0.9*want || mean > 1.1*want {
			t.Errorf("%v: mean interarrival %.0fns, want %.0fns ±10%%", proc, mean, want)
		}
		frac := float64(counts[0]) / n
		if frac < 0.72 || frac > 0.78 {
			t.Errorf("%v: interactive fraction %.3f, want 0.75 (weights 3:1)", proc, frac)
		}
	}
}

// TestBurstyBurstsHarder: at the same mean rate the bursty process piles
// more arrivals into its densest window than Poisson does — the property
// that makes its latency tail interesting.
func TestBurstyBurstsHarder(t *testing.T) {
	peak := func(proc Process) int {
		cfg := Config{RatePerSec: 1000, Requests: 1, Seed: 99, Process: proc,
			BurstFactor: 6, BurstFrac: 0.1, Classes: testClasses(1, 1)}
		a := NewArrivals(cfg)
		// Count arrivals per 10ms window over ~20s of schedule; return the max.
		const windowNs = 10e6
		counts := map[int64]int{}
		var now int64
		for i := 0; i < 20000; i++ {
			w, _ := a.Next()
			now += w
			counts[now/windowNs]++
		}
		max := 0
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		return max
	}
	pp, bp := peak(Poisson), peak(Bursty)
	if bp <= pp {
		t.Errorf("bursty peak window %d arrivals <= poisson peak %d; bursts missing", bp, pp)
	}
}

func testServer(t *testing.T, ctx exec.Context, slots, depth int) *server.Server {
	t.Helper()
	n := uint32(128)
	r := gen.NewRNG(21)
	src := make([]uint32, 800)
	dst := make([]uint32, 800)
	src[0], dst[0] = 0, 1
	for i := 1; i < 800; i++ {
		src[i] = uint32(r.Intn(int(n)))
		dst[i] = uint32(r.Intn(int(n)))
	}
	out := engine.FromCSR(ctx, "lg", graph.MustBuild(n, src, dst), 1, ssd.OptaneSSD, nil, nil)
	sess, err := session.New(ctx, out, nil, session.Config{Engine: "blaze", MaxQueries: slots})
	if err != nil {
		t.Fatalf("session.New: %v", err)
	}
	return server.New(ctx, sess, server.Config{Slots: slots, QueueDepth: depth})
}

// TestRunDeterministic is the tentpole's unit-level acceptance: two runs of
// the same seeded open-loop workload against identical sim servers produce
// identical reports — every counter and every latency percentile.
func TestRunDeterministic(t *testing.T) {
	run := func() server.Report {
		ctx := exec.NewSim()
		srv := testServer(t, ctx, 2, 4)
		// Offered load ~2x capacity (2 slots, ~0.8ms weighted service,
		// 4000/s offered): saturation, so rejections and expiries are part
		// of what must reproduce.
		cfg := Config{RatePerSec: 4000, Requests: 300, Process: Bursty, Seed: 42,
			Classes: testClasses(200_000, 2e6)}
		var rep server.Report
		ctx.Run("main", func(p exec.Proc) {
			srv.Start()
			var err error
			rep, err = Run(p, srv, cfg)
			if err != nil {
				t.Errorf("loadgen.Run: %v", err)
			}
		})
		return rep
	}
	r1, r2 := run(), run()
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("same seed, different reports:\n%+v\nvs\n%+v", r1, r2)
	}
	if r1.Rejected == 0 {
		t.Error("saturating workload saw no rejections; admission control untested")
	}
	if r1.Expired == 0 {
		t.Error("saturating workload saw no queue expiries; deadlines untested")
	}
	if r1.Completed == 0 {
		t.Error("no completions")
	}
	if r1.Submitted+r1.Rejected != 300 {
		t.Errorf("offered %d+%d != 300 requests", r1.Submitted, r1.Rejected)
	}
}

// TestInteractiveBeatsBatchUnderLoad: priorities must show up in the
// tail — under contention the interactive p99 stays below the batch p99
// even though batch bodies are only 10x longer than interactive ones.
func TestInteractiveBeatsBatchUnderLoad(t *testing.T) {
	ctx := exec.NewSim()
	srv := testServer(t, ctx, 2, 16)
	cfg := Config{RatePerSec: 3000, Requests: 400, Seed: 5,
		Classes: []Class{
			{Name: "lookup", Priority: server.Interactive, Weight: 1,
				Body: func(p exec.Proc, q *session.Query) error { p.Advance(200_000); return nil }},
			{Name: "scan", Priority: server.Batch, Weight: 1,
				Body: func(p exec.Proc, q *session.Query) error { p.Advance(2e6); return nil }},
		}}
	var rep server.Report
	ctx.Run("main", func(p exec.Proc) {
		srv.Start()
		var err error
		rep, err = Run(p, srv, cfg)
		if err != nil {
			t.Fatalf("loadgen.Run: %v", err)
		}
	})
	var inter, batch server.ClassReport
	for _, c := range rep.Classes {
		switch c.Class {
		case "interactive":
			inter = c
		case "batch":
			batch = c
		}
	}
	if inter.Completed == 0 || batch.Completed == 0 {
		t.Fatalf("both classes must complete work: %+v", rep)
	}
	if inter.P99Ns >= batch.P99Ns {
		t.Errorf("interactive p99 %dns >= batch p99 %dns; priority dispatch not helping",
			inter.P99Ns, batch.P99Ns)
	}
}

// TestConfigValidation: broken configs are rejected up front.
func TestConfigValidation(t *testing.T) {
	good := Config{RatePerSec: 100, Requests: 10, Seed: 1, Classes: testClasses(1, 1)}
	bad := []Config{
		{Requests: 10, Classes: good.Classes}, // no rate
		{RatePerSec: math.NaN(), Requests: 10, Classes: good.Classes},
		{RatePerSec: math.Inf(1), Requests: 10, Classes: good.Classes},
		{RatePerSec: 100, Classes: good.Classes},              // no requests
		{RatePerSec: 100, Requests: 10},                       // no classes
		{RatePerSec: 100, Requests: 10, Classes: []Class{{}}}, // zero weight
		{RatePerSec: 100, Requests: 10, Process: Bursty, BurstFactor: 4, BurstFrac: 0.5,
			Classes: good.Classes}, // factor*frac >= 1: off-phase rate non-positive
	}
	for i, cfg := range bad {
		if err := cfg.validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := good.validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
}

// TestBurstyRateAboveCycleResolution: above 6.4e10 requests/s the burst
// cycle of 64 interarrival times rounds below one nanosecond; the schedule
// must still draw arrivals instead of dividing by a zero-length cycle.
func TestBurstyRateAboveCycleResolution(t *testing.T) {
	a := NewArrivals(Config{RatePerSec: 1e11, Requests: 4, Process: Bursty, Seed: 3,
		Classes: testClasses(1, 1)})
	for i := 0; i < 4; i++ {
		if wait, _ := a.Next(); wait < 1 {
			t.Fatalf("arrival %d waits %d ns, want at least 1", i, wait)
		}
	}
}

// TestParseProcess: names round-trip and junk is rejected.
func TestParseProcess(t *testing.T) {
	for _, proc := range []Process{Poisson, Bursty} {
		got, err := ParseProcess(proc.String())
		if err != nil || got != proc {
			t.Errorf("ParseProcess(%q) = %v, %v", proc.String(), got, err)
		}
	}
	if _, err := ParseProcess("weibull"); err == nil {
		t.Error("unknown process accepted")
	}
}
