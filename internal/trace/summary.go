package trace

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
)

// histBuckets is the number of log2 duration buckets: bucket i holds spans
// with duration in [2^i, 2^(i+1)) ns, bucket 0 also holds zero-duration
// spans; 40 buckets reach ~18 minutes.
const histBuckets = 40

// Hist is a log2 histogram of span durations in nanoseconds.
type Hist struct {
	Buckets [histBuckets]int64
	Count   int64
	TotalNs int64
	MinNs   int64
	MaxNs   int64
}

// add records one duration.
func (h *Hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.Buckets[b]++
	if h.Count == 0 || ns < h.MinNs {
		h.MinNs = ns
	}
	if ns > h.MaxNs {
		h.MaxNs = ns
	}
	h.Count++
	h.TotalNs += ns
}

// MeanNs returns the mean duration.
func (h *Hist) MeanNs() int64 {
	if h.Count == 0 {
		return 0
	}
	return h.TotalNs / h.Count
}

// OpStats aggregates one op within one stage.
type OpStats struct {
	Op   Op
	Hist Hist
	// ArgTotal sums event args (pages, records, ...).
	ArgTotal int64
	// Instants counts instant events of the op.
	Instants int64
}

// StageStats aggregates one pipeline stage over all its procs.
type StageStats struct {
	Stage Stage
	Procs int
	// BusyNs is the total span time attributed to the stage.
	BusyNs int64
	Ops    []*OpStats
}

// opStats returns (creating) the op bucket.
func (s *StageStats) opStats(op Op) *OpStats {
	for _, o := range s.Ops {
		if o.Op == op {
			return o
		}
	}
	o := &OpStats{Op: op}
	s.Ops = append(s.Ops, o)
	return o
}

// DevIO is one device's IO breakdown from OpDevRead/OpDevRetry events.
type DevIO struct {
	Dev      int32
	Requests int64
	Pages    int64
	Bytes    int64
	BusyNs   int64
	Retries  int64
	CacheHit int64
}

// QueueStats summarizes one occupancy counter series.
type QueueStats struct {
	Op      Op
	Samples int64
	Sum     int64
	Max     int64
}

// Mean returns the mean sampled occupancy.
func (q *QueueStats) Mean() float64 {
	if q.Samples == 0 {
		return 0
	}
	return float64(q.Sum) / float64(q.Samples)
}

// PhaseStats is one coordinator phase's accumulated time across EdgeMap
// calls.
type PhaseStats struct {
	Phase Phase
	Calls int64
	NS    int64
}

// Summary is the aggregated view of a Trace: where the pipeline's time
// went, per stage, per device, per queue — the numbers behind "gather is
// the bottleneck at binCount=N".
type Summary struct {
	MakespanNs int64
	// Phases partitions the coordinator's clock; OtherNs is the makespan
	// share outside any phase span (frontier work between EdgeMap calls,
	// algorithm-level bookkeeping).
	Phases  []PhaseStats
	OtherNs int64
	Stages  []StageStats
	Devices []DevIO
	Queues  []QueueStats
	// Events is the number of events collected.
	Events int
}

// Summarize aggregates a collected trace.
func Summarize(tr *Trace) *Summary {
	s := &Summary{MakespanNs: tr.Makespan(), Events: tr.Events()}
	stages := map[Stage]*StageStats{}
	devs := map[int32]*DevIO{}
	queues := map[Op]*QueueStats{}
	phases := map[Phase]*PhaseStats{}
	var phaseNs int64
	for _, p := range tr.Procs {
		st, ok := stages[p.Stage]
		if !ok {
			st = &StageStats{Stage: p.Stage}
			stages[p.Stage] = st
		}
		st.Procs++
		for _, e := range p.Events {
			switch e.Kind {
			case KindSpan:
				st.BusyNs += e.Dur
				st.opStats(e.Op).Hist.add(e.Dur)
				st.opStats(e.Op).ArgTotal += e.Arg
			case KindInstant:
				o := st.opStats(e.Op)
				o.Instants++
				o.ArgTotal += e.Arg
			case KindCounter:
				q, ok := queues[e.Op]
				if !ok {
					q = &QueueStats{Op: e.Op}
					queues[e.Op] = q
				}
				q.Samples++
				q.Sum += e.Arg
				if e.Arg > q.Max {
					q.Max = e.Arg
				}
			}
			switch e.Op {
			case OpDevRead:
				d := devIO(devs, e.Dev)
				d.Requests++
				d.Pages += e.Arg
				d.Bytes += e.Arg * 4096
				d.BusyNs += e.Dur
			case OpDevRetry:
				devIO(devs, e.Dev).Retries++
			case OpCacheHit:
				devIO(devs, e.Dev).CacheHit++
			case OpPhase:
				ph, ok := phases[Phase(e.Arg)]
				if !ok {
					ph = &PhaseStats{Phase: Phase(e.Arg)}
					phases[Phase(e.Arg)] = ph
				}
				ph.Calls++
				ph.NS += e.Dur
				phaseNs += e.Dur
			}
		}
	}
	s.OtherNs = s.MakespanNs - phaseNs
	if s.OtherNs < 0 {
		s.OtherNs = 0
	}
	for _, st := range stages {
		sort.Slice(st.Ops, func(i, j int) bool { return st.Ops[i].Op < st.Ops[j].Op })
		s.Stages = append(s.Stages, *st)
	}
	sort.Slice(s.Stages, func(i, j int) bool { return s.Stages[i].Stage < s.Stages[j].Stage })
	for _, d := range devs {
		s.Devices = append(s.Devices, *d)
	}
	sort.Slice(s.Devices, func(i, j int) bool { return s.Devices[i].Dev < s.Devices[j].Dev })
	for _, q := range queues {
		s.Queues = append(s.Queues, *q)
	}
	sort.Slice(s.Queues, func(i, j int) bool { return s.Queues[i].Op < s.Queues[j].Op })
	for ph := Phase(0); ph < numPhases; ph++ {
		if p, ok := phases[ph]; ok {
			s.Phases = append(s.Phases, *p)
		}
	}
	return s
}

// devIO returns (creating) the device bucket.
func devIO(m map[int32]*DevIO, dev int32) *DevIO {
	d, ok := m[dev]
	if !ok {
		d = &DevIO{Dev: dev}
		m[dev] = d
	}
	return d
}

// ms renders nanoseconds as milliseconds.
func ms(ns int64) string { return fmt.Sprintf("%.3fms", float64(ns)/1e6) }

// pct renders a share of the makespan.
func (s *Summary) pct(ns int64) string {
	if s.MakespanNs == 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(ns)/float64(s.MakespanNs))
}

// Fprint writes the plain-text stage summary the -stage-stats flag prints.
// The phase table partitions the makespan: its rows (including "other")
// sum to the makespan exactly, so per-stage attribution can be checked
// against the reported total.
func (s *Summary) Fprint(w io.Writer) {
	fmt.Fprintf(w, "=== stage summary (makespan %s, %d events) ===\n\n", ms(s.MakespanNs), s.Events)

	fmt.Fprintf(w, "phase breakdown (sums to makespan):\n")
	fmt.Fprintf(w, "  %-10s %12s %8s %8s\n", "phase", "time", "share", "calls")
	var covered int64
	for _, p := range s.Phases {
		fmt.Fprintf(w, "  %-10s %12s %8s %8d\n", p.Phase, ms(p.NS), s.pct(p.NS), p.Calls)
		covered += p.NS
	}
	fmt.Fprintf(w, "  %-10s %12s %8s\n", "other", ms(s.OtherNs), s.pct(s.OtherNs))
	fmt.Fprintf(w, "  %-10s %12s %8s\n\n", "total", ms(covered+s.OtherNs), s.pct(covered+s.OtherNs))

	fmt.Fprintf(w, "per-stage busy time:\n")
	fmt.Fprintf(w, "  %-8s %6s %12s  %s\n", "stage", "procs", "busy", "ops (count, mean, max, Σarg)")
	for _, st := range s.Stages {
		fmt.Fprintf(w, "  %-8s %6d %12s", st.Stage, st.Procs, ms(st.BusyNs))
		for i, o := range st.Ops {
			if i > 0 {
				fmt.Fprintf(w, "\n  %-8s %6s %12s", "", "", "")
			}
			if o.Hist.Count > 0 {
				fmt.Fprintf(w, "  %-10s n=%-8d mean=%-10s max=%-10s Σarg=%d",
					o.Op, o.Hist.Count, ms(o.Hist.MeanNs()), ms(o.Hist.MaxNs), o.ArgTotal)
			} else {
				fmt.Fprintf(w, "  %-10s n=%-8d Σarg=%d", o.Op, o.Instants, o.ArgTotal)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)

	if len(s.Devices) > 0 {
		fmt.Fprintf(w, "per-device IO:\n")
		fmt.Fprintf(w, "  %-5s %10s %10s %12s %12s %8s %10s\n",
			"dev", "requests", "pages", "bytes", "busy", "retries", "cache-hits")
		for _, d := range s.Devices {
			fmt.Fprintf(w, "  %-5d %10d %10d %12d %12s %8d %10d\n",
				d.Dev, d.Requests, d.Pages, d.Bytes, ms(d.BusyNs), d.Retries, d.CacheHit)
		}
		fmt.Fprintln(w)
	}

	if len(s.Queues) > 0 {
		fmt.Fprintf(w, "queue occupancy:\n")
		fmt.Fprintf(w, "  %-12s %10s %10s %8s\n", "queue", "samples", "mean", "max")
		for _, q := range s.Queues {
			fmt.Fprintf(w, "  %-12s %10d %10.2f %8d\n", q.Op, q.Samples, q.Mean(), q.Max)
		}
	}
}
