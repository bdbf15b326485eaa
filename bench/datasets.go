package bench

import (
	"fmt"
	"sync"

	"blaze/gen"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/graph"
	"blaze/internal/metrics"
	"blaze/internal/ssd"
)

// DefaultScale divides the paper's vertex/edge counts for the harness's
// default datasets. At 2048 the heaviest default graph (rmat30-preset) has
// ~8.4M edges, keeping the full figure suite to minutes while preserving
// degree distribution, locality, and frontier shape. Use -scale to enlarge.
const DefaultScale = 2048

// Dataset is one generated, immutable dataset shared across experiments.
type Dataset struct {
	Preset gen.Preset
	CSR    *graph.CSR
	Tr     *graph.CSR
	// Hot is the hot-edge fraction computed from the in-degree
	// distribution (feeds atomic-contention pricing).
	Hot float64
	// Start is the highest-out-degree vertex, used as the BFS/BC source
	// so traversals cover the graph.
	Start uint32
}

var (
	dsMu    sync.Mutex
	dsCache = map[string]*Dataset{}
)

// Load returns the dataset for a Table II short name at the given scale,
// generating and caching it on first use.
func Load(short string, scale float64) (*Dataset, error) {
	key := fmt.Sprintf("%s@%g", short, scale)
	dsMu.Lock()
	defer dsMu.Unlock()
	if d, ok := dsCache[key]; ok {
		return d, nil
	}
	p, err := gen.PresetByShort(short)
	if err != nil {
		return nil, err
	}
	p = p.Scaled(scale)
	src, dst := p.Generate()
	c := graph.MustBuild(p.V, src, dst)
	tr := c.Transpose()
	d := &Dataset{
		Preset: p,
		CSR:    c,
		Tr:     tr,
		Hot:    graph.HotEdgeFraction(tr.Degrees, 0.001),
	}
	var best uint32
	for v := uint32(0); v < c.V; v++ {
		if c.Degree(v) > c.Degree(best) {
			best = v
		}
	}
	d.Start = best
	dsCache[key] = d
	return d, nil
}

// MustLoad is Load that panics on unknown names (programmer error in the
// harness tables).
func MustLoad(short string, scale float64) *Dataset {
	d, err := Load(short, scale)
	if err != nil {
		panic(err)
	}
	return d
}

// DeviceOpts is applied to every device the harness builds. It is empty by
// default — figure runs must stay byte-identical — and is populated by
// blaze-bench's -fault*/-retry* flags for failure-injection drills.
var DeviceOpts []ssd.DeviceOptions

// Graphs wraps the cached CSRs as device-backed graphs under ctx.
func (d *Dataset) Graphs(ctx exec.Context, numDev int, prof ssd.Profile,
	stats *metrics.IOStats, tl *metrics.Timeline) (out, in *engine.Graph) {
	out = engine.FromCSR(ctx, d.Preset.Name, d.CSR, numDev, prof, stats, tl, DeviceOpts...)
	in = engine.FromCSR(ctx, d.Preset.Name+".t", d.Tr, numDev, prof, stats, tl, DeviceOpts...)
	out.Locality, in.Locality = d.Preset.Locality, d.Preset.Locality
	out.HotFrac, in.HotFrac = d.Hot, d.Hot
	return out, in
}

// SixGraphs is the six-dataset set used by Figures 1, 7, 8, 9, 10
// (hyperlink14 appears only in the memory study).
var SixGraphs = []string{"r2", "r3", "ur", "tw", "sk", "fr"}
