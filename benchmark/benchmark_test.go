package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so the rule has to sort
		}
		return xs
	}
	if _, _, ok := tailPercentile(seq(19)); ok {
		t.Error("19 samples: a tail was reported; under 20 only the median is")
	}
	for _, c := range []struct {
		n     int
		pct   float64
		value float64
	}{{20, 50, 10}, {48, 100 * 38.0 / 48, 38}, {100, 90, 90}} {
		pct, v, ok := tailPercentile(seq(c.n))
		if !ok || math.Abs(pct-c.pct) > 1e-9 || v != c.value {
			t.Errorf("n=%d: got p%.2f = %g (ok=%v), want p%.2f = %g", c.n, pct, v, ok, c.pct, c.value)
		}
		// Exactly ten samples lie beyond the reported value.
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond != 10 {
			t.Errorf("n=%d: %d samples beyond the tail value, want 10", c.n, beyond)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("median odd = %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %g", m)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 = quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %g, %g; Python gives 1, 4", q1, q3)
	}
	if q1, q3 = quartiles([]float64{7}); q1 != 7 || q3 != 7 {
		t.Errorf("quartiles of one = %g, %g", q1, q3)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, StartNs: 10, EndNs: 40},
		{ID: 2, Parent: 0, StartNs: 30, EndNs: 60},   // overlaps span 1: union is [10, 60]
		{ID: 3, Parent: 0, StartNs: 90, EndNs: 120},  // sticks out: only [90, 100] counts
		{ID: 4, Parent: 0, StartNs: 35, EndNs: 38},   // inside the union already
		{ID: 5, Parent: 1, StartNs: 60, EndNs: 90},   // a grandchild is not a child
		{ID: 6, Parent: 0, StartNs: 70, EndNs: -1},   // never ended
		{ID: 7, Parent: -1, StartNs: 0, EndNs: 1000}, // another root
	}
	if got := selfNs(spans, 0); got != 40 {
		t.Errorf("self time = %d, want 100 - (50 + 10) = 40", got)
	}
	if got := selfNs(spans, 7); got != 1000 {
		t.Errorf("childless span: self time = %d, want its duration", got)
	}
}

func TestRecorder(t *testing.T) {
	var none *recorder
	none.end(none.begin("x", -1, -1)) // a nil recorder records nothing
	if none.all() != nil {
		t.Error("nil recorder returned spans")
	}
	r := newRecorder("w")
	q := r.begin("query", -1, 3)
	c := r.begin("child", q, 3)
	r.end(c)
	r.end(q)
	m := r.beginAt("model", -1, 4, 500)
	r.endAt(m, 900)
	s := r.all()
	if len(s) != 3 || s[1].Parent != q || s[1].Query != 3 || s[0].Workload != "w" {
		t.Fatalf("spans = %+v", s)
	}
	if s[0].StartNs > s[1].StartNs || s[1].EndNs > s[0].EndNs {
		t.Errorf("child [%d, %d] not inside parent [%d, %d]", s[1].StartNs, s[1].EndNs, s[0].StartNs, s[0].EndNs)
	}
	if s[2].Clock != "model" || s[2].dur() != 400 || s[0].Clock != "host" {
		t.Errorf("clocks: %+v", s)
	}
}

// The limits and the alphabet of the builder's contract.
func TestSpecWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
		if w.new == nil {
			t.Errorf("%s: no set-up", w.Name)
		}
	}
	setup := false
	for _, s := range endToEnd {
		use(s.Name)
		if s.Driver < 0 || s.Driver > 0.25 {
			t.Errorf("%s: driver bound %g outside [0, 0.25]", s.Name, s.Driver)
		}
		if s.Driver > 0 && s.Driver < s.Bound {
			t.Errorf("%s: the driver compares runs of different seeds and cannot be stricter (%g) than -compare (%g)", s.Name, s.Driver, s.Bound)
		}
		if !s.Exact && s.Bound == 0 {
			t.Errorf("%s: an end-to-end metric needs a bound", s.Name)
		}
		if s.Name == "setup_s" {
			setup = s.Unit == "s" && s.Better == "lower"
		}
	}
	if !setup {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(s.Unit) {
			t.Errorf("%s: unit %q", s.Name, s.Unit)
		}
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("%s: better %q", s.Name, s.Better)
		}
	}
	for _, s := range perLayer {
		use(s.Name)
	}
}

func TestManifestIsCommitted(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) > 64<<10 {
		t.Errorf("manifest is %d bytes, limit 64 KiB", len(want))
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the tables in spec.go; regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}
}

func TestEndToEndMetricsCoverSpec(t *testing.T) {
	passes := []passResult{
		{ops: []opSample{{Ns: 2e6, Allocs: 10, AllocBytes: 1e6, ReadBytes: 4e6, Edges: 1000}, {Ns: 4e6, Allocs: 30, AllocBytes: 3e6, ReadBytes: 8e6, Edges: 3000}}},
		{ops: []opSample{{Ns: 3e6, Allocs: 20, AllocBytes: 2e6, ReadBytes: 6e6, Edges: 2000}}},
	}
	m := endToEndMetrics([]float64{3, 1, 2}, passes, 12.5)
	for _, s := range endToEnd {
		v, ok := m[s.Name]
		if !ok {
			if s.Driver > 0 {
				t.Errorf("%s: not computed", s.Name)
			}
		} else if v.Unit != s.Unit {
			t.Errorf("%s: unit %q, spec says %q", s.Name, v.Unit, s.Unit)
		} else if v.Value == 0 {
			t.Errorf("%s: zero", s.Name)
		}
	}
	if _, ok := m["query_ms_tail"]; ok {
		t.Error("a tail was reported from three samples")
	}
	for name, want := range map[string]float64{
		"setup_s": 2, "query_ms": 3, "read_mb": 6, "allocs_per_query": 20,
		"alloc_mb_per_query": 2, "live_heap_mb": 12.5, "edges_per_s": 2000 / 3e6 * 1e9,
	} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if q := m["query_ms"]; q.Samples != 3 || q.Q1 != 3 || q.Q3 != 3 {
		// per-pass medians are 3 and 3
		t.Errorf("query_ms = %+v", q)
	}
	// Twenty samples make a tail: the eleventh from the top.
	long := passResult{}
	for i := 1; i <= 24; i++ {
		long.ops = append(long.ops, opSample{Ns: int64(i) * 1e6})
	}
	if tail := endToEndMetrics([]float64{1}, []passResult{long}, 1)["query_ms_tail"]; tail.Value != 14 || tail.Note != "p58" || tail.Samples != 24 {
		t.Errorf("tail of 24 samples = %+v, want 14 ms at p58", tail)
	}
	// A workload-specific value overrides the generic computation.
	passes[0].extra = map[string]float64{"edges_per_s": 7}
	passes[1].extra = map[string]float64{"edges_per_s": 9}
	if got := endToEndMetrics([]float64{1}, passes, 1)["edges_per_s"].Value; got != 8 {
		t.Errorf("overridden edges_per_s = %g, want the median 8", got)
	}
}

func TestResultSetRoundTrip(t *testing.T) {
	rs := &resultSet{
		Host: hostFacts{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Commit: "abc", Seed: 2, Seconds: 8},
		Workloads: []workloadResult{{
			Name: "pr_dense", Attempted: 6, Failed: 0, Shed: 1,
			EndToEnd: map[string]metricValue{"query_ms": {Value: 1609.986487, Unit: "ms", Samples: 5, Passes: 5, Q1: 1600.5, Q3: 1620.25}},
			PerLayer: map[string]metricValue{"algo.rounds": {Value: 5, Unit: "count"}},
		}},
	}
	path := filepath.Join(t.TempDir(), "rs.json")
	if err := writeResultSet(path, rs); err != nil {
		t.Fatal(err)
	}
	back, err := readResultSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs, back) {
		t.Errorf("round trip changed the result set:\n%+v\n%+v", rs, back)
	}
	if _, err := readResultSet(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("reading a missing file succeeded")
	}
}

func TestContractLine(t *testing.T) {
	r := &workloadResult{Name: "x", Attempted: 7, Failed: 0, Shed: 3,
		EndToEnd: map[string]metricValue{
			"setup_s":       {Value: 0.8127, Unit: "s", Samples: 3, Q1: 0.8, Q3: 0.9},
			"query_ms_tail": {Value: 9, Unit: "ms"}, // not in BENCHMARK.json, so not in the line
		}}
	line, err := contractLine(r)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Errorf("keys: %s", line)
	}
	want := `{"correct":true,"attempted":7,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}`
	if string(line) != want {
		t.Errorf("line = %s\nwant   %s", line, want)
	}
	r.Failed = 2
	line, _ = contractLine(r)
	if !bytes.Contains(line, []byte(`"correct":false`)) || !bytes.Contains(line, []byte(`"failed":2`)) {
		t.Errorf("failed run: %s", line)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "query_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "edges_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	exact := metricSpec{Name: "read_mb", Unit: "MB", Better: "lower", Exact: true}
	// Four passes: the pooled value spreads half as much as one pass.
	mv := func(v, q1, q3 float64) metricValue { return metricValue{Value: v, Passes: 4, Q1: q1, Q3: q3} }
	for _, c := range []struct {
		what      string
		spec      metricSpec
		base, cur metricValue
		verdict   string
		worsening float64
	}{
		{"tie", lower, mv(100, 99, 101), mv(100, 99, 101), verdictPass, 0},
		{"inside the bound", lower, mv(100, 99, 101), mv(108, 107, 109), verdictPass, 0.08},
		{"out of bound", lower, mv(100, 99, 101), mv(112, 111, 113), verdictWorse, 0.12},
		{"better", lower, mv(100, 99, 101), mv(50, 49, 51), verdictPass, -0.5},
		{"spread wider than the bound", lower, mv(100, 85, 110), mv(104, 103, 105), verdictUnresolved, 0.04},
		{"new side's spread counts too", lower, mv(100, 99, 101), mv(104, 90, 115), verdictUnresolved, 0.04},
		{"spread of one pass wider, of the pooled value not", lower, mv(100, 92, 108), mv(104, 103, 105), verdictPass, 0.04},
		{"worse beats unresolved", lower, mv(100, 60, 140), mv(130, 129, 131), verdictWorse, 0.30},
		{"higher is better: drop", higher, mv(200, 199, 201), mv(170, 169, 171), verdictWorse, 0.15},
		{"higher is better: gain", higher, mv(200, 199, 201), mv(260, 259, 261), verdictPass, -0.30},
		{"exact tie", exact, mv(167.75168, 0, 0), mv(167.75168, 0, 0), verdictPass, 0},
		{"exact, any worsening", exact, mv(160, 0, 0), mv(160.004096, 0, 0), verdictWorse, 0.004096 / 160},
		{"exact, improved", exact, mv(10, 0, 0), mv(9, 0, 0), verdictPass, -0.1},
		{"from zero", lower, mv(0, 0, 0), mv(3, 0, 0), verdictWorse, 1},
		{"both zero", lower, mv(0, 0, 0), mv(0, 0, 0), verdictPass, 0},
	} {
		got := judge(c.spec, c.base, c.cur)
		if got.Verdict != c.verdict || math.Abs(got.Worsening-c.worsening) > 1e-9 {
			t.Errorf("%s: verdict %s worsening %g, want %s %g", c.what, got.Verdict, got.Worsening, c.verdict, c.worsening)
		}
	}
}

func TestCompareSets(t *testing.T) {
	set := func(query, read, makespan, rounds float64) *resultSet {
		return &resultSet{Workloads: []workloadResult{
			{Name: "sim_pr",
				EndToEnd: map[string]metricValue{"query_ms": {Value: query, Unit: "ms"}, "read_mb": {Value: read, Unit: "MB"}},
				PerLayer: map[string]metricValue{
					"model_makespan_ms": {Value: makespan, Unit: "model_ms"},
					"lat_p50_model_ms":  {Unit: "model_ms"}, // 0 on both sides: not a sim_pr metric
					"algo.rounds":       {Value: rounds, Unit: "count"},
				}},
			{Name: "only_in_one"},
		}}
	}
	cs := compareSets(set(2000, 41.9, 17.872, 5), set(2300, 41.9, 17.9, 9))
	got := map[string]string{}
	for _, c := range cs {
		if c.Workload != "sim_pr" {
			t.Errorf("judged workload %q", c.Workload)
		}
		got[c.Metric] = c.Verdict
	}
	want := map[string]string{"query_ms": verdictWorse, "read_mb": verdictPass, "model_makespan_ms": verdictWorse}
	if !reflect.DeepEqual(got, want) {
		// algo.rounds explains and is never judged; lat_p50_model_ms does not exist here.
		t.Errorf("verdicts = %v, want %v", got, want)
	}
	var buf bytes.Buffer
	if bad := printComparison(&buf, cs); bad != 2 {
		t.Errorf("%d bad verdicts, want 2:\n%s", bad, buf.String())
	}
	for _, s := range []string{"query_ms", "2000", "2300", "+15.00%", "worse"} {
		if !bytes.Contains(buf.Bytes(), []byte(s)) {
			t.Errorf("comparison output lacks %q:\n%s", s, buf.String())
		}
	}
}

func TestFailedShare(t *testing.T) {
	r := workloadResult{Attempted: 480, Failed: 1, Shed: 23}
	if got := r.failedShare(); got != 24.0/480 {
		t.Errorf("failed_share = %g", got)
	}
	if (&workloadResult{}).failedShare() != 0 {
		t.Error("failed_share of nothing attempted")
	}
	r = workloadResult{}
	r.tally(passResult{ops: make([]opSample, 1), offered: 128, shed: 5})
	r.tally(passResult{ops: make([]opSample, 12), failed: 1})
	if r.Attempted != 140 || r.Failed != 1 || r.Shed != 5 {
		t.Errorf("tally = %+v", r)
	}
}
