package bench

import (
	"fmt"

	"blaze/internal/exec"
	"blaze/internal/loadgen"
	"blaze/internal/pagecache"
	"blaze/internal/registry"
	"blaze/internal/server"
	"blaze/internal/session"
	"blaze/internal/ssd"
)

// The serving suite drives the full serving stack — session, admission
// queue, priority dispatch, deadlines, open-loop load generator — under
// the Sim backend and records per-class tail latency, goodput, and
// rejection rate as the offered load sweeps from light to past capacity.

// ServingLoadFactors are the offered loads the sweep visits, as fractions
// of the server's estimated capacity (slots / weighted service time). The
// 1.2 point is deliberately supercritical: that row is where admission
// control (rejections) and deadlines (expiries) earn their keep.
var ServingLoadFactors = []float64{0.2, 0.5, 0.8, 1.2}

const (
	// ServingSlots is the worker count (and session query-slot bound).
	ServingSlots = 4
	// ServingQueueDepth bounds the admission queue.
	ServingQueueDepth = 16
	// ServingRequests is the arrival count per measured load point.
	ServingRequests = 160
	// ServingSeed keys the open-loop arrival schedule.
	ServingSeed = 1234
	// ServingTimeoutFactor: interactive requests carry a deadline of this
	// many serial service times.
	ServingTimeoutFactor = 20
	// ServingGateLoadFactor is the subcritical load the CI p99 gate pins.
	ServingGateLoadFactor = 0.5
	// ServingGateP99Factor bounds the interactive p99 at the gate load:
	// p99 must stay under this many serial interactive service times. At
	// half capacity the queueing contribution is modest; a blowup here
	// means priority dispatch or admission control regressed.
	ServingGateP99Factor = 6.0
)

// ServingEntry is one (load factor, class) row of the serving suite: the
// server's own report for the class, plus the load it was measured under.
type ServingEntry struct {
	// LoadFactor is offered/capacity; RatePerSec is the resulting open-loop
	// arrival rate in model time.
	LoadFactor float64
	RatePerSec float64
	// ServiceNs is the class's serial (uncontended, warmed) service time,
	// measured before the load is applied — the latency floor.
	ServiceNs int64
	server.ClassReport
}

// ServingRun measures one load point: it builds a fresh session and
// serving front end over d, measures the warmed serial service time of
// each class, offers loadFactor times the estimated capacity for
// ServingRequests arrivals, and returns one entry per class.
func ServingRun(d *Dataset, loadFactor float64) []ServingEntry {
	ctx := exec.NewSim()
	out, in := d.Graphs(ctx, 1, ssd.OptaneSSD, nil, nil)
	cache := pagecache.New(int64(d.CSR.NumPages()) * ssd.PageSize / 2)
	sess, err := session.New(ctx, out, in, session.Config{
		Engine: "blaze",
		Base: registry.Options{
			Edges:   d.CSR.E,
			Workers: 16,
			NumDev:  1,
			Profile: ssd.OptaneSSD,
		},
		Cache:      cache,
		MaxQueries: ServingSlots,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: serving: %v", err))
	}
	srv := server.New(ctx, sess, server.Config{Slots: ServingSlots, QueueDepth: ServingQueueDepth})

	bfsBody := sessionBody(d, out, in, "bfs")
	spmvBody := sessionBody(d, out, in, "spmv")

	var entries []ServingEntry
	ctx.Run("main", func(p exec.Proc) {
		// Measure each class's serial service time on a warmed cache: run
		// every body once cold (warming the shared cache), then once
		// measured. The warmed times are the latency floors the loaded run
		// is compared against, and they size both the offered rate and the
		// interactive deadline.
		serviceNs := func(body session.Body) int64 {
			t0 := p.Now()
			if _, err := sess.Run(p, body); err != nil {
				panic(fmt.Sprintf("bench: serving service measurement: %v", err))
			}
			return p.Now() - t0
		}
		serviceNs(bfsBody)
		serviceNs(spmvBody)
		bfsNs := serviceNs(bfsBody)
		spmvNs := serviceNs(spmvBody)

		classes := []loadgen.Class{
			{Name: "bfs", Priority: server.Interactive, Weight: 3,
				TimeoutNs: ServingTimeoutFactor * bfsNs, Body: bfsBody},
			{Name: "spmv", Priority: server.Batch, Weight: 1, Body: spmvBody},
		}
		weightedNs := (3*bfsNs + spmvNs) / 4
		rate := loadFactor * ServingSlots * 1e9 / float64(weightedNs)

		srv.Start()
		rep, err := loadgen.Run(p, srv, loadgen.Config{
			RatePerSec: rate,
			Requests:   ServingRequests,
			Process:    loadgen.Poisson,
			Seed:       ServingSeed,
			Classes:    classes,
		})
		if err != nil {
			panic(fmt.Sprintf("bench: serving: %v", err))
		}

		svc := map[string]int64{"interactive": bfsNs, "batch": spmvNs}
		for _, c := range rep.Classes {
			entries = append(entries, ServingEntry{LoadFactor: loadFactor, RatePerSec: rate,
				ServiceNs: svc[c.Class], ClassReport: c})
		}
	})
	return entries
}

// ServingSnapshot sweeps the offered load over ServingLoadFactors and
// returns the per-class rows.
func ServingSnapshot(scale float64) []ServingEntry {
	d := MustLoad("r2", scale)
	var entries []ServingEntry
	for _, lf := range ServingLoadFactors {
		entries = append(entries, ServingRun(d, lf)...)
	}
	return entries
}

// ExtServing tabulates ServingSnapshot.
func ExtServing(scale float64) []Table {
	t := Table{
		ID:    "ext_serving",
		Title: "Serving stack under open-loop load: blaze on the rmat27 preset, 4 slots, interactive BFS 3:1 batch SpMV",
		Header: []string{"load x capacity", "rate /s", "class", "service ms", "p50 ms", "p99 ms",
			"goodput /s", "reject %", "submitted", "completed", "late", "rejected", "expired", "failed"},
	}
	for _, e := range ServingSnapshot(scale) {
		t.Add(e.LoadFactor, e.RatePerSec, e.Class, float64(e.ServiceNs)/1e6,
			float64(e.P50Ns)/1e6, float64(e.P99Ns)/1e6, e.GoodputPerSec, 100*e.RejectRate,
			e.Submitted, e.Completed, e.Late, e.Rejected, e.Expired, e.Failed)
	}
	t.Notes = append(t.Notes,
		"The 1.2x row is deliberately past capacity: admission control sheds load there so that the admitted interactive tail stays bounded.")
	return []Table{t}
}
