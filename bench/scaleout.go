package bench

import (
	"fmt"
	"strings"

	"blaze/internal/msg"
	"blaze/internal/registry"
)

// The scale-out suite measures what destination partitioning buys: M
// machines each hold 1/M of the edges on their own device array, so the
// aggregate read bandwidth grows M-fold while the interconnect charges for
// every exchanged frontier delta. On an IO-bound query the bandwidth win
// must dominate the network cost — that is the whole point of the design —
// and CI gates on it. The suite records makespan, wire traffic, and the
// per-machine read split for M=1/2/4 on the high-locality crawl.

// ScaleoutGraph is the dataset the scale-out suite measures (the crawl;
// its dense adjacency makes the IO-bound legs genuinely device-limited).
const ScaleoutGraph = "sk"

// ScaleoutGateQuery is the IO-bound query the CI gate checks: SpMV reads
// every edge once with no inter-round frontier exchange, so machine count
// translates directly into aggregate bandwidth.
const ScaleoutGateQuery = "spmv"

// ScaleoutSpeedupFloor is the CI bound: 4 machines must finish the gate
// query at least this much faster than 1.
const ScaleoutSpeedupFloor = 1.5

// ScaleoutMachineCounts is the suite's M sweep.
var ScaleoutMachineCounts = []int{1, 2, 4}

// scaleoutQueries are the measured queries: the IO-bound gate query plus
// the two frontier-driven ones that actually exercise the interconnect.
var scaleoutQueries = []string{"spmv", "bfs", "pr"}

// ScaleoutEntry is one (machines, query) measurement of the scale-out
// suite.
type ScaleoutEntry struct {
	Query      string
	Machines   int
	MakespanNs int64
	ReadBytes  int64
	// Net is the interconnect's wire counters (zero at M=1, where no
	// exchange happens).
	Net msg.NetStats
	// PerMachineReadBytes is each machine's local-array read volume.
	PerMachineReadBytes []int64
	// SpeedupVsM1 is the same query's M=1 makespan over this one.
	SpeedupVsM1 float64
}

// ScaleoutSnapshot sweeps blaze-scaleout over ScaleoutMachineCounts on the
// crawl and returns one entry per (machines, query).
func ScaleoutSnapshot(scale float64) []ScaleoutEntry {
	d := MustLoad(ScaleoutGraph, scale)
	base := map[string]int64{}
	var entries []ScaleoutEntry
	for _, m := range ScaleoutMachineCounts {
		for _, query := range scaleoutQueries {
			res := Run(d, Opts{System: "blaze-scaleout", Query: query, PRIters: 5, Options: registry.Options{Machines: m}})
			per := make([]int64, m)
			for dev, b := range res.DeviceBytes {
				if dev < m { // one device per machine in this sweep
					per[dev] += b
				}
			}
			e := ScaleoutEntry{
				Query:               query,
				Machines:            m,
				MakespanNs:          res.ElapsedNs,
				ReadBytes:           res.ReadBytes,
				Net:                 res.Net,
				PerMachineReadBytes: per,
			}
			if m == 1 {
				base[query] = res.ElapsedNs
			}
			if b := base[query]; b > 0 && res.ElapsedNs > 0 {
				e.SpeedupVsM1 = float64(b) / float64(res.ElapsedNs)
			}
			entries = append(entries, e)
		}
	}
	return entries
}

// scaleoutTable tabulates ScaleoutSnapshot.
func scaleoutTable(entries []ScaleoutEntry) []Table {
	t := Table{
		ID:    "ext_scaleout",
		Title: "blaze-scaleout on the sk2005 preset: one device per machine, 25 Gb/s interconnect",
		Header: []string{"machines", "query", "time ms", "speedup vs M=1", "read MB", "net MB",
			"net msgs", "retransmits", "read MB per machine"},
	}
	for _, e := range entries {
		per := make([]string, len(e.PerMachineReadBytes))
		for i, b := range e.PerMachineReadBytes {
			per[i] = formatFloat(float64(b) / 1e6)
		}
		t.Add(e.Machines, e.Query, float64(e.MakespanNs)/1e6, e.SpeedupVsM1,
			float64(e.ReadBytes)/1e6, float64(e.Net.Bytes)/1e6, e.Net.Messages, e.Net.Retransmits,
			strings.Join(per, "/"))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("CI holds %s at M=4 to at least %.1fx of M=1 (TestScaleoutSnapshotGate): aggregate device bandwidth must outrun the wire.",
			ScaleoutGateQuery, ScaleoutSpeedupFloor))
	return []Table{t}
}
