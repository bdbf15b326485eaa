package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// hostFacts records where and how a result set was taken.
type hostFacts struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// resultSet is what one run of the command writes with -out and what
// -compare reads.
type resultSet struct {
	Host      hostFacts        `json:"host"`
	Workloads []workloadResult `json:"workloads"`
}

func (rs *resultSet) workload(name string) *workloadResult {
	for i := range rs.Workloads {
		if rs.Workloads[i].Name == name {
			return &rs.Workloads[i]
		}
	}
	return nil
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

func writeResultSet(path string, rs *resultSet) error {
	data, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

const (
	verdictPass       = "pass"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// comparison is one metric of one workload, base against new.
type comparison struct {
	Workload, Metric, Unit string
	Base, New              float64
	// Worsening is the share of Base by which New is worse (negative when
	// it is better); Spread is the wider of the two runs' estimated
	// run-to-run spreads (metricValue.spread).
	Worsening, Spread float64
	Verdict           string
}

// judge applies one metric's rule. An exact metric passes unless it got
// worse at all. A bounded one is worse beyond its bound, and unresolved
// when either run's own spread is wider than the bound, because then a
// difference inside the bound says nothing.
func judge(s metricSpec, base, cur metricValue) comparison {
	c := comparison{Metric: s.Name, Unit: s.Unit, Base: base.Value, New: cur.Value, Verdict: verdictPass}
	diff := cur.Value - base.Value
	if s.Better == "higher" {
		diff = -diff
	}
	switch {
	case diff == 0:
	case base.Value != 0:
		c.Worsening = diff / math.Abs(base.Value)
	case diff > 0:
		c.Worsening = 1 // from nothing to something: wholly worse
	default:
		c.Worsening = -1
	}
	if s.Exact {
		if c.Worsening > 0 {
			c.Verdict = verdictWorse
		}
		return c
	}
	c.Spread = math.Max(base.spread(), cur.spread())
	switch {
	case c.Worsening > s.Bound:
		c.Verdict = verdictWorse
	case c.Spread > s.Bound:
		c.Verdict = verdictUnresolved
	}
	return c
}

// compareSets judges every gated metric of every workload both sets hold.
// Per-layer metrics without a bound explain and are not judged; a gated
// per-layer metric that is 0 on both sides does not exist on that workload.
func compareSets(base, cur *resultSet) []comparison {
	var out []comparison
	for _, w := range workloads {
		b, c := base.workload(w.Name), cur.workload(w.Name)
		if b == nil || c == nil {
			continue
		}
		judgeAll := func(specs []metricSpec, bm, cm map[string]metricValue, skipZero bool) {
			for _, s := range specs {
				bv, okB := bm[s.Name]
				cv, okC := cm[s.Name]
				if !okB || !okC || (!s.Exact && s.Bound == 0) {
					continue
				}
				if skipZero && bv.Value == 0 && cv.Value == 0 {
					continue
				}
				r := judge(s, bv, cv)
				r.Workload = w.Name
				out = append(out, r)
			}
		}
		judgeAll(endToEnd, b.EndToEnd, c.EndToEnd, false)
		judgeAll(perLayer, b.PerLayer, c.PerLayer, true)
	}
	return out
}

// printComparison writes one line per judged metric, each ratio with its
// base, and returns how many were worse or unresolved.
func printComparison(w io.Writer, cs []comparison) (bad int) {
	fmt.Fprintf(w, "%-14s %-24s %14s %14s %9s %8s  %s\n", "workload", "metric", "base", "new", "change", "spread", "verdict")
	for _, c := range cs {
		fmt.Fprintf(w, "%-14s %-24s %14.6g %14.6g %+8.2f%% %7.2f%%  %s\n",
			c.Workload, c.Metric, c.Base, c.New, 100*signedChange(c), 100*c.Spread, c.Verdict)
		if c.Verdict != verdictPass {
			bad++
		}
	}
	return bad
}

// signedChange is (new - base) / base, the plain ratio a reader expects
// next to the base value.
func signedChange(c comparison) float64 {
	if c.Base == 0 {
		return 0
	}
	return (c.New - c.Base) / math.Abs(c.Base)
}
