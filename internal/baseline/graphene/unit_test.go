package graphene

import (
	"path/filepath"
	"testing"

	"blaze/gen"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/graph"
	"blaze/internal/ssd"
)

// TestPlacementPartitionsRoundRobin: partitions are contiguous page ranges
// assigned to pairs round-robin.
func TestPlacementPartitionsRoundRobin(t *testing.T) {
	ctx := exec.NewSim()
	pr := gen.Preset{Kind: gen.KindUniform, Seed: 3, V: 4096, E: 100_000}
	out, _ := engine.BuildPreset(ctx, pr, 1, ssd.OptaneSSD, nil, nil)
	cfg := DefaultConfig(4)
	cfg.Pairs = 4
	s := New(ctx, cfg, ssd.OptaneSSD)
	pl, err := s.placementFor(out)
	if err != nil {
		t.Fatal(err)
	}
	pages := out.CSR.NumPages()
	counts := make([]int64, cfg.Pairs)
	for p := int64(0); p < pages; p++ {
		pair := pl.pairOf(p, cfg.Pairs)
		if pair < 0 || pair >= cfg.Pairs {
			t.Fatalf("page %d assigned to pair %d", p, pair)
		}
		counts[pair]++
	}
	// Equal page counts within one partition's worth.
	for _, c := range counts {
		if c < pages/int64(cfg.Pairs)-pl.pagesPerPart || c > pages/int64(cfg.Pairs)+pl.pagesPerPart {
			t.Errorf("pair page counts unbalanced: %v", counts)
		}
	}
	// Lazy placement is cached.
	if again, _ := s.placementFor(out); again != pl {
		t.Error("placement rebuilt for same graph")
	}
}

// TestGapMergingReadsExtraPages: with gaps within the threshold the IO
// bytes exceed the pages the frontier's edge ranges cover (amplification,
// §III-B).
func TestGapMergingReadsExtraPages(t *testing.T) {
	ctx := exec.NewSim()
	pr := gen.Preset{Kind: gen.KindRMAT, A: 0.57, B: 0.19, C: 0.19, Seed: 10, V: 8192, E: 200_000, Locality: 0.1}
	out, _ := engine.BuildPreset(ctx, pr, 1, ssd.OptaneSSD, nil, nil)
	cfg := DefaultConfig(1)
	cfg.Stats = metricsStats(1)
	s := New(ctx, cfg, ssd.OptaneSSD)
	// Sparse frontier -> gappy page lists.
	f := sparseFrontier(out.CSR, 200)
	ctx.Run("main", func(p exec.Proc) {
		s.EdgeMap(p, out, f, discardFuncs(), false)
	})
	exact := frontier.PagesOf(f, out.CSR, 1).Pages() * ssd.PageSize
	if gappy := cfg.Stats.TotalBytes(); gappy <= exact {
		t.Errorf("gap merging read %d bytes <= the %d the frontier's pages hold; no amplification", gappy, exact)
	}
}

// TestEdgeMapIndexOnlyGraphErrors: Graphene places copies of the in-memory
// adjacency on its own devices, so a graph loaded index-only from files
// cannot be placed; EdgeMap must return that as an error, not panic.
func TestEdgeMapIndexOnlyGraphErrors(t *testing.T) {
	base := filepath.Join(t.TempDir(), "g")
	if err := graph.WriteFiles(graph.MustBuild(4, []uint32{0, 1}, []uint32{1, 2}), nil, base); err != nil {
		t.Fatal(err)
	}
	ctx := exec.NewSim()
	g, err := engine.FromFiles(ctx, "g", base+".gr.index", base+".gr.adj.0", 1, ssd.OptaneSSD, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	s := New(ctx, DefaultConfig(1), ssd.OptaneSSD)
	ctx.Run("main", func(p exec.Proc) {
		out, err := s.EdgeMap(p, g, frontier.All(4), discardFuncs(), true)
		if err == nil || out != nil {
			t.Errorf("EdgeMap on an index-only graph = (%v, %v), want an error", out, err)
		}
	})
}
