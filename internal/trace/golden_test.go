// Golden test for the trace export: a BFS over a small seeded graph under
// the deterministic sim backend must emit a byte-identical Chrome
// trace_event stream on every host, forever. The test lives in an external
// package because it drives the full registry → engine → pipeline stack,
// which imports trace.
package trace_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/graph"
	"blaze/internal/registry"
	"blaze/internal/ssd"
	"blaze/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRun executes one traced BFS on a fixed seeded graph and returns the
// collected trace. Everything that feeds the span stream — graph, device
// layout, worker count, scheduler — is pinned.
func goldenRun(t *testing.T) *trace.Trace {
	t.Helper()
	const nEdges = 400
	n := uint32(64)
	r := gen.NewRNG(42)
	src := make([]uint32, nEdges)
	dst := make([]uint32, nEdges)
	src[0], dst[0] = 0, 1
	for i := 1; i < nEdges; i++ {
		src[i] = uint32(r.Intn(int(n)))
		dst[i] = uint32(r.Intn(int(n)))
	}
	c := graph.MustBuild(n, src, dst)

	ctx := exec.NewSim()
	g := engine.FromCSR(ctx, "golden", c, 2, ssd.OptaneSSD, nil, nil)
	tr := trace.New(trace.Config{})
	sys, err := registry.New("blaze", ctx, registry.Options{
		Edges:   c.E,
		Workers: 4,
		NumDev:  2,
		Profile: ssd.OptaneSSD,
		Tracer:  tr,
	})
	if err != nil {
		t.Fatalf("registry.New: %v", err)
	}
	ctx.Run("main", func(p exec.Proc) {
		algo.Must(algo.BFS(sys, p, g, 0))
	})
	return tr.Collect()
}

// TestTraceGoldenBFS renders two independent traced runs to Chrome JSON,
// checks they are byte-identical to each other (determinism) and to the
// checked-in golden (stability across changes). Regenerate deliberately
// with: go test ./internal/trace/ -run TraceGolden -update
func TestTraceGoldenBFS(t *testing.T) {
	var first, second bytes.Buffer
	if err := goldenRun(t).WriteChromeJSON(&first); err != nil {
		t.Fatalf("WriteChromeJSON: %v", err)
	}
	if err := goldenRun(t).WriteChromeJSON(&second); err != nil {
		t.Fatalf("WriteChromeJSON: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("trace stream not deterministic: two identical sim runs produced %d vs %d bytes",
			first.Len(), second.Len())
	}

	golden := filepath.Join("testdata", "bfs_blaze_chrome.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, first.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, first.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	got := first.Bytes()
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := i - 60
		if lo < 0 {
			lo = 0
		}
		ctx := func(b []byte) string {
			hi := i + 60
			if hi > len(b) {
				hi = len(b)
			}
			if lo > len(b) {
				return ""
			}
			return string(b[lo:hi])
		}
		t.Fatalf("trace diverges from golden at byte %d (got %d bytes, want %d)\n got: …%s…\nwant: …%s…",
			i, len(got), len(want), ctx(got), ctx(want))
	}

	// The golden stream must also satisfy the summary invariant the CLI
	// reports: phase spans plus "other" reconstruct the makespan.
	s := trace.Summarize(goldenRun(t))
	var phases int64
	for _, ph := range s.Phases {
		phases += ph.NS
	}
	if phases+s.OtherNs != s.MakespanNs {
		t.Errorf("phases %d + other %d != makespan %d", phases, s.OtherNs, s.MakespanNs)
	}
}
