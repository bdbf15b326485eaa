package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blaze/internal/registry"
	"blaze/internal/ssd"
)

// coarse is a very small scale for fast harness tests; shapes are checked
// loosely here and precisely by the real harness runs in EXPERIMENTS.md.
const coarse = 40000

func TestLoadCachesAndAnnotates(t *testing.T) {
	d1 := MustLoad("r2", coarse)
	d2 := MustLoad("r2", coarse)
	if d1 != d2 {
		t.Error("dataset cache miss for identical key")
	}
	if d1.CSR.E == 0 || d1.Tr.E != d1.CSR.E {
		t.Error("dataset shape broken")
	}
	if d1.Hot <= 0 {
		t.Error("hot fraction not computed")
	}
	if d1.CSR.Degree(d1.Start) == 0 {
		t.Error("start vertex has no edges")
	}
	if _, err := Load("nope", coarse); err == nil {
		t.Error("unknown dataset did not error")
	}
}

func TestRunBlazeProducesMetrics(t *testing.T) {
	d := MustLoad("r2", coarse)
	r := Run(d, Opts{System: "blaze", Query: "bfs"})
	if r.ElapsedNs <= 0 || r.ReadBytes <= 0 {
		t.Fatalf("empty result: %+v", r)
	}
	if r.AvgBW() <= 0 {
		t.Error("no bandwidth")
	}
	if len(r.IterBytes) == 0 {
		t.Error("no iteration log")
	}
	if r.AlgoBytes == 0 || r.Mem.Total() == 0 {
		t.Error("memory accounting empty")
	}
}

func TestRunIsDeterministic(t *testing.T) {
	d := MustLoad("ur", coarse)
	a := Run(d, Opts{System: "blaze", Query: "wcc"})
	b := Run(d, Opts{System: "blaze", Query: "wcc"})
	if a.ElapsedNs != b.ElapsedNs || a.ReadBytes != b.ReadBytes {
		t.Errorf("nondeterministic runs: %d/%d vs %d/%d ns/bytes",
			a.ElapsedNs, a.ReadBytes, b.ElapsedNs, b.ReadBytes)
	}
}

func TestRunAllSystemsAllQueries(t *testing.T) {
	d := MustLoad("r2", coarse)
	for _, sys := range []string{"blaze", "blaze-sync", "flashgraph", "graphene"} {
		for _, q := range []string{"bfs", "pr1", "spmv"} {
			r := Run(d, Opts{System: sys, Query: q, PRIters: 2})
			if r.ElapsedNs <= 0 {
				t.Errorf("%s/%s produced no time", sys, q)
			}
		}
	}
}

func TestTable1Shape(t *testing.T) {
	tables := Table1(coarse)
	if len(tables) != 1 || len(tables[0].Rows) != 4 {
		t.Fatal("table1 should have 4 device rows")
	}
}

func TestTableFormatAndCSV(t *testing.T) {
	tb := Table{ID: "x", Title: "T", Header: []string{"a", "b"}}
	tb.Add("v", 3.14159)
	tb.Add(7, 0.0001)
	var sb strings.Builder
	tb.Fprint(&sb)
	if !strings.Contains(sb.String(), "3.142") {
		t.Errorf("float formatting: %s", sb.String())
	}
	dir := t.TempDir()
	if err := tb.SaveCSV(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "x.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "a,b\n") {
		t.Errorf("csv content: %s", data)
	}
}

// TestBlazeBeatsBaselinesOnHeavyQuery is the repository's headline
// regression: on a power-law graph and a computation-heavy query, Blaze
// must beat both baselines and its own sync variant.
func TestBlazeBeatsBaselinesOnHeavyQuery(t *testing.T) {
	d := MustLoad("r2", DefaultScale) // large enough for pipeline overlap
	blaze := Run(d, Opts{System: "blaze", Query: "spmv"})
	for _, other := range []string{"blaze-sync", "flashgraph", "graphene"} {
		r := Run(d, Opts{System: other, Query: "spmv"})
		if r.ElapsedNs <= blaze.ElapsedNs {
			t.Errorf("%s (%d ns) not slower than blaze (%d ns) on spmv/r2",
				other, r.ElapsedNs, blaze.ElapsedNs)
		}
	}
}

// TestBlazeSaturation: average bandwidth within 25% of device bandwidth on
// a dense workload at a reasonable scale.
func TestBlazeSaturation(t *testing.T) {
	d := MustLoad("r2", DefaultScale) // large enough for pipeline overlap
	r := Run(d, Opts{System: "blaze", Query: "spmv"})
	if r.AvgBW() < 0.75*ssd.OptaneSSD.RandBytesPerSec {
		t.Errorf("Blaze spmv bandwidth %.2f GB/s below 75%% of Optane", r.AvgBW()/1e9)
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		if e.Run == nil || e.ID == "" || e.Desc == "" {
			t.Errorf("experiment %q incomplete", e.ID)
		}
		if ids[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
	}
	for _, want := range []string{"table1", "table2", "fig1", "fig2", "fig3", "fig4",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"ext_pagecache", "ext_multiquery", "ext_serving", "ext_scaleout", "ext_ingest"} {
		if !ids[want] {
			t.Errorf("missing experiment %q", want)
		}
	}
	if _, err := ExperimentByID("zzz"); err == nil {
		t.Error("unknown experiment id did not error")
	}
}

// TestExtExperimentsDeterministic: every extension suite is a pure function
// of the sim, so running its experiment twice saves byte-identical CSVs —
// the property that lets CI regenerate results/ext_*.csv and cmp them
// against the committed files.
func TestExtExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("every extension suite twice; skipped in -short mode")
	}
	for _, id := range []string{"ext_pagecache", "ext_multiquery", "ext_serving",
		"ext_scaleout", "ext_ingest"} {
		t.Run(id, func(t *testing.T) {
			e, err := ExperimentByID(id)
			if err != nil {
				t.Fatal(err)
			}
			var saved [2][]byte
			for i := range saved {
				tables := e.Run(2 * DefaultScale) // blaze-bench -scale 4096
				if len(tables) != 1 || tables[0].ID != id || len(tables[0].Rows) == 0 {
					t.Fatalf("%s should return its one non-empty table, got %+v", id, tables)
				}
				dir := t.TempDir()
				if err := tables[0].SaveCSV(dir); err != nil {
					t.Fatal(err)
				}
				if saved[i], err = os.ReadFile(filepath.Join(dir, id+".csv")); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(saved[0], saved[1]) {
				t.Errorf("two runs saved different CSVs:\n%s\nvs\n%s", saved[0], saved[1])
			}
		})
	}
}

// TestThreadScalingMonotone: more compute procs must never slow Blaze down
// materially on a compute-heavy query (Fig. 9's premise).
func TestThreadScalingMonotone(t *testing.T) {
	d := MustLoad("r2", DefaultScale)
	t2 := Run(d, Opts{System: "blaze", Query: "spmv", Options: registry.Options{Workers: 2}})
	t16 := Run(d, Opts{System: "blaze", Query: "spmv", Options: registry.Options{Workers: 16}})
	if float64(t16.ElapsedNs) > 0.8*float64(t2.ElapsedNs) {
		t.Errorf("16 workers (%d ns) not clearly faster than 2 (%d ns)", t16.ElapsedNs, t2.ElapsedNs)
	}
}

func TestMain(m *testing.M) {
	code := m.Run()
	DropCache()
	os.Exit(code)
}
