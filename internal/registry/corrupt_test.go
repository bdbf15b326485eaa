package registry

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/graph"
	"blaze/internal/ssd"
)

// TestCorruptAdjacencyIsAnError: a file-backed adjacency whose first edge
// names a vertex past the graph (bytes 0-3 set to ff ff ff 7f) fails BFS on
// the forward files and PageRank on the transpose files with an error that
// names the source, the page and the destination — on blaze and
// flashgraph, Real backend — instead of an index panic on a compute
// goroutine, and every proc of the failed query joins.
func TestCorruptAdjacencyIsAnError(t *testing.T) {
	dir := t.TempDir()
	pr := gen.Preset{Kind: gen.KindRMAT, A: 0.57, B: 0.19, C: 0.19, Seed: 21, V: 4096, E: 40000}
	src, dst := pr.Generate()
	c := graph.MustBuild(pr.V, src, dst)
	base := filepath.Join(dir, "g")
	if err := graph.WriteFiles(c, c.Transpose(), base); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".gr.adj.0", ".tgr.adj.0"} {
		f, err := os.OpenFile(base+suffix, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{0xff, 0xff, 0xff, 0x7f}, 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	// BFS starts at the vertex owning edge 0, so its first round reads the
	// corrupt page.
	var first uint32
	for c.Degree(first) == 0 {
		first++
	}
	for _, name := range []string{"blaze", "flashgraph"} {
		for _, q := range []struct {
			graph string
			run   func(sys algo.System, p exec.Proc, g *engine.Graph) error
		}{
			{".gr", func(sys algo.System, p exec.Proc, g *engine.Graph) error {
				_, err := algo.BFS(sys, p, g, first)
				return err
			}},
			{".tgr", func(sys algo.System, p exec.Proc, g *engine.Graph) error {
				_, err := algo.PageRank(sys, p, g, 1e-4, 5)
				return err
			}},
		} {
			t.Run(name+q.graph, func(t *testing.T) {
				before := runtime.NumGoroutine()
				ctx := exec.NewReal()
				g, err := engine.FromFiles(ctx, "corrupt"+q.graph, base+q.graph+".index", base+q.graph+".adj.0", 2, ssd.OptaneSSD, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				defer g.Close()
				sys, err := New(name, ctx, Options{Edges: c.E, Workers: 4, NumDev: 2})
				if err != nil {
					t.Fatal(err)
				}
				ctx.Run("main", func(p exec.Proc) { err = q.run(sys, p, g) })
				if err == nil {
					t.Fatal("the query over a corrupt adjacency returned no error")
				}
				for _, want := range []string{`"corrupt` + q.graph + `"`, "page 0", "destination 2147483647"} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q does not name %s", err, want)
					}
				}
				deadline := time.Now().Add(5 * time.Second)
				for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
					time.Sleep(10 * time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > before {
					t.Errorf("goroutines leaked: %d before, %d after", before, n)
				}
			})
		}
	}
}
