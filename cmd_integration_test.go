package blaze_test

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"blaze/gen"
)

// writeEdgeListFile dumps the r2/40000 preset as a plain-text edge list,
// the input both mkgraph build paths are compared on.
func writeEdgeListFile(t *testing.T, path string) {
	t.Helper()
	p, err := gen.PresetByShort("r2")
	if err != nil {
		t.Fatal(err)
	}
	src, dst := p.Scaled(40000).Generate()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# r2 at 1/40000 scale")
	for i := range src {
		fmt.Fprintf(w, "%d %d\n", src[i], dst[i])
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCommandLineToolsEndToEnd builds the actual binaries and drives the
// artifact workflow: generate a dataset with mkgraph, run every query tool
// on the produced files, and render plots from bench CSVs.
func TestCommandLineToolsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	data := t.TempDir()
	base := filepath.Join(data, "g")
	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, name), args...)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	out := run("mkgraph", "-preset", "r2", "-scale", "40000", "-out", base)
	if !strings.Contains(out, "wrote") {
		t.Fatalf("mkgraph output: %s", out)
	}
	idx, adj := base+".gr.index", base+".gr.adj.0"
	tidx, tadj := base+".tgr.index", base+".tgr.adj.0"

	if out := run("bfs", "-sim", "-computeWorkers", "4", "-startNode", "0", idx, adj); !strings.Contains(out, "reached") {
		t.Errorf("bfs output: %s", out)
	}
	if out := run("pr", "-sim", "-maxIters", "5", idx, adj); !strings.Contains(out, "top ranks") {
		t.Errorf("pr output: %s", out)
	}
	if out := run("spmv", "-sim", idx, adj); !strings.Contains(out, "sum(y)") {
		t.Errorf("spmv output: %s", out)
	}
	if out := run("wcc", "-sim", "-inIndexFilename", tidx, "-inAdjFilenames", tadj, idx, adj); !strings.Contains(out, "components") {
		t.Errorf("wcc output: %s", out)
	}
	if out := run("bc", "-sim", "-startNode", "0", "-inIndexFilename", tidx, "-inAdjFilenames", tadj, idx, adj); !strings.Contains(out, "dependency") {
		t.Errorf("bc output: %s", out)
	}
	// Every tool is cli.Main over its catalogue entry, so -concurrency is
	// honoured by all five: two bc replicas, two attribution lines.
	if out := run("bc", "-sim", "-concurrency", "2", "-inIndexFilename", tidx, "-inAdjFilenames", tadj, idx, adj); strings.Count(out, "\nquery ") != 2 ||
		!strings.Contains(out, "q1: highest dependency") {
		t.Errorf("bc -concurrency 2 output: %s", out)
	}

	// Edge-list round trip: in-memory build and external merge-sort must
	// produce byte-identical artifact files from the same input.
	el := filepath.Join(data, "edges.txt")
	writeEdgeListFile(t, el)
	inMem, extSort := filepath.Join(data, "m"), filepath.Join(data, "x")
	run("mkgraph", "-edges", el, "-out", inMem)
	if out := run("mkgraph", "-edges", el, "-maxMemMB", "1", "-out", extSort); !strings.Contains(out, "external-sorted") {
		t.Errorf("mkgraph external output: %s", out)
	}
	for _, suffix := range []string{".gr.index", ".gr.adj.0", ".tgr.index", ".tgr.adj.0"} {
		a, err := os.ReadFile(inMem + suffix)
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(extSort + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s: external sort differs from in-memory build", suffix)
		}
	}

	// Dynamic ingest: stream insertions, repair incrementally, verify
	// bit-identity against full recomputes.
	out = run("blaze-ingest", "-preset", "r2", "-scale", "40000", "-randUpdates", "500", "-batch", "250", "-verify")
	// Two equal batches: the second seal folds the first segment in.
	if !strings.Contains(out, "verified bit-identical") ||
		!strings.Contains(out, "1 live segments after 1 merges (250 edges rewritten)") {
		t.Errorf("blaze-ingest output: %s", out)
	}

	// blaze-bench on the quickest experiment.
	resDir := t.TempDir()
	if out := run("blaze-bench", "-exp", "table1", "-out", resDir); !strings.Contains(out, "table1") {
		t.Errorf("blaze-bench output: %s", out)
	}
	if _, err := os.Stat(filepath.Join(resDir, "table1.csv")); err != nil {
		t.Errorf("table1.csv missing: %v", err)
	}

	// An extension suite runs through the same -exp path as a figure.
	if out := run("blaze-bench", "-exp", "ext_ingest", "-scale", "4096", "-out", resDir); !strings.Contains(out, "repair speedup") {
		t.Errorf("blaze-bench -exp ext_ingest output: %s", out)
	}
	if _, err := os.Stat(filepath.Join(resDir, "ext_ingest.csv")); err != nil {
		t.Errorf("ext_ingest.csv missing: %v", err)
	}

	// Profiling flags must cover the one mode that returns before the
	// experiment loop: a traced run leaves a non-empty CPU profile.
	prof := filepath.Join(resDir, "stage-stats.prof")
	run("blaze-bench", "-stage-stats", "-scale", "4096", "-cpuprofile", prof)
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Errorf("-stage-stats -cpuprofile left no profile: %v", err)
	}
}
