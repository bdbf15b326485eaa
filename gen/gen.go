// Package gen generates the synthetic graphs the reproduction runs on.
//
// The paper evaluates on seven graphs (Table II): three synthetic (rmat27,
// rmat30, uran27) and four real (twitter, sk2005, friendster,
// hyperlink14). The real datasets total hundreds of GB and are not
// redistributable here, so each gets a generator preset that reproduces the
// properties the paper's results depend on: vertex/edge counts (scaled),
// degree distribution (R-MAT power law vs uniform), average degree,
// locality (sk2005 is highly local; uran27 has none), and diameter regime
// (windowed generation yields the high-diameter structure of web crawls).
//
// Generation is deterministic: it uses a local splitmix64/xoshiro-style
// generator rather than math/rand, so datasets are bit-identical across Go
// versions and platforms.
package gen

import (
	"fmt"
	"math"
)

// Kind selects the generator family.
type Kind int

const (
	// KindRMAT is the recursive-matrix power-law generator.
	KindRMAT Kind = iota
	// KindUniform draws endpoints uniformly (normal degree distribution).
	KindUniform
	// KindWindowed draws destinations near their source (high locality,
	// high diameter), mimicking web crawls like sk2005.
	KindWindowed
)

// String names the generator family.
func (k Kind) String() string {
	switch k {
	case KindRMAT:
		return "rmat"
	case KindUniform:
		return "uniform"
	case KindWindowed:
		return "windowed"
	}
	return "unknown"
}

// Preset describes one Table II dataset.
type Preset struct {
	Name  string // full dataset name from the paper
	Short string // the paper's short name (r2, r3, ur, tw, sk, fr, hy)
	// PaperV and PaperE are the paper's vertex/edge counts in millions.
	PaperV, PaperE float64
	// Distribution and Diameter echo Table II.
	Distribution string
	Diameter     int
	Type         string // "synthetic" or "real"

	Kind Kind
	// A,B,C are the R-MAT quadrant probabilities (D = 1-A-B-C).
	A, B, C float64
	// Window is the destination window for KindWindowed, as a fraction of
	// the vertex count.
	Window float64
	// Locality in [0,1] summarizes the graph's cache friendliness; it
	// feeds the cost model's locality discount (§V-D: high-locality
	// graphs saturate IO with fewer compute threads).
	Locality float64
	Seed     uint64

	// V and E are the generated (scaled) counts; zero until Scaled is
	// applied or for custom presets set directly.
	V uint32
	E int64
}

// Presets returns the seven Table II datasets in paper order.
func Presets() []Preset {
	return []Preset{
		{Name: "rmat27", Short: "r2", PaperV: 134, PaperE: 2147, Distribution: "power", Diameter: 10, Type: "synthetic",
			Kind: KindRMAT, A: 0.57, B: 0.19, C: 0.19, Locality: 0.10, Seed: 27},
		{Name: "rmat30", Short: "r3", PaperV: 1074, PaperE: 17180, Distribution: "power", Diameter: 11, Type: "synthetic",
			Kind: KindRMAT, A: 0.57, B: 0.19, C: 0.19, Locality: 0.05, Seed: 30},
		{Name: "uran27", Short: "ur", PaperV: 134, PaperE: 2147, Distribution: "uniform", Diameter: 10, Type: "synthetic",
			Kind: KindUniform, Locality: 0.0, Seed: 127},
		{Name: "twitter", Short: "tw", PaperV: 61, PaperE: 1468, Distribution: "power", Diameter: 75, Type: "real",
			Kind: KindRMAT, A: 0.52, B: 0.22, C: 0.22, Locality: 0.30, Seed: 61},
		{Name: "sk2005", Short: "sk", PaperV: 51, PaperE: 1949, Distribution: "power", Diameter: 205, Type: "real",
			Kind: KindWindowed, A: 0.57, B: 0.19, C: 0.19, Window: 0.02, Locality: 0.85, Seed: 51},
		{Name: "friendster", Short: "fr", PaperV: 124, PaperE: 1806, Distribution: "power", Diameter: 56, Type: "real",
			Kind: KindRMAT, A: 0.48, B: 0.24, C: 0.24, Locality: 0.20, Seed: 124},
		{Name: "hyperlink14", Short: "hy", PaperV: 1727, PaperE: 64422, Distribution: "power", Diameter: 790, Type: "real",
			Kind: KindWindowed, A: 0.57, B: 0.19, C: 0.19, Window: 0.01, Locality: 0.40, Seed: 1727},
	}
}

// PresetByShort looks a preset up by its Table II short name.
func PresetByShort(short string) (Preset, error) {
	for _, p := range Presets() {
		if p.Short == short || p.Name == short {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("gen: unknown dataset %q", short)
}

// Scaled returns the preset with V and E set to the paper's counts divided
// by factor (e.g. 512 for the default harness scale). V is rounded up to a
// multiple of 16 to keep the index group math exact at boundaries
// exercised.
func (p Preset) Scaled(factor float64) Preset {
	v := int64(math.Round(p.PaperV * 1e6 / factor))
	if v < 16 {
		v = 16
	}
	v = (v + 15) &^ 15
	e := int64(math.Round(p.PaperE * 1e6 / factor))
	if e < 1 {
		e = 1
	}
	p.V = uint32(v)
	p.E = e
	return p
}

// Generate produces the preset's edge list deterministically. The returned
// slices have length p.E.
func (p Preset) Generate() (src, dst []uint32) {
	if p.V == 0 || p.E == 0 {
		panic("gen: preset not scaled (V/E are zero)")
	}
	src = make([]uint32, p.E)
	dst = make([]uint32, p.E)
	r := newRNG(p.Seed)
	switch p.Kind {
	case KindRMAT:
		d := 1 - p.A - p.B - p.C
		genRMAT(r, p.V, src, dst, p.A, p.B, p.C, d)
	case KindUniform:
		for i := range src {
			src[i] = uint32(r.next() % uint64(p.V))
			dst[i] = uint32(r.next() % uint64(p.V))
		}
	case KindWindowed:
		genWindowed(r, p.V, src, dst, p.A, p.B, p.C, p.Window)
	}
	return src, dst
}

// genRMAT fills src/dst with R-MAT edges over n vertices.
func genRMAT(r *rng, n uint32, src, dst []uint32, a, b, c, d float64) {
	levels := 0
	for (uint64(1) << levels) < uint64(n) {
		levels++
	}
	ab := a + b
	abc := a + b + c
	_ = d
	for i := range src {
		var s, t uint64
		for l := 0; l < levels; l++ {
			u := r.float64()
			switch {
			case u < a:
				// top-left: no bits set
			case u < ab:
				t |= 1 << l
			case u < abc:
				s |= 1 << l
			default:
				s |= 1 << l
				t |= 1 << l
			}
		}
		src[i] = uint32(s % uint64(n))
		dst[i] = uint32(t % uint64(n))
	}
}

// genWindowed draws sources from an R-MAT-style skewed distribution but
// places destinations within a window around the source, producing the
// high-locality, high-diameter structure of web graphs.
func genWindowed(r *rng, n uint32, src, dst []uint32, a, b, c float64, window float64) {
	w := uint64(float64(n) * window)
	if w < 4 {
		w = 4
	}
	levels := 0
	for (uint64(1) << levels) < uint64(n) {
		levels++
	}
	ab := a + b
	abc := a + b + c
	for i := range src {
		// Skewed source (R-MAT row distribution).
		var s uint64
		for l := 0; l < levels; l++ {
			u := r.float64()
			switch {
			case u < a, u >= ab && u < abc:
				// row bit clear
			default:
				s |= 1 << l
			}
		}
		s %= uint64(n)
		// Destination within +/- window/2 of the source, wrapping.
		off := int64(r.next()%w) - int64(w/2)
		t := (int64(s) + off + int64(n)) % int64(n)
		src[i] = uint32(s)
		dst[i] = uint32(t)
	}
}

// Golden is SplitMix64's stream increment, 2^64 divided by the golden ratio.
const Golden = 0x9E3779B97F4A7C15

// Mix64 is the SplitMix64 finalizer: a cheap bijection whose output bits
// each depend on every input bit. It is the one copy in the module; the
// RNG below, internal/loadgen's RNG and the keyed hashes of internal/fault,
// internal/msg, internal/session and internal/pagecache all call it, each
// with its own seeding.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// rng is splitmix64: tiny, fast, stable across platforms.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed*Golden + 1} }

func (r *rng) next() uint64 {
	r.state += Golden
	return Mix64(r.state)
}

func (r *rng) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// RNG exposes the deterministic generator for other packages that need
// reproducible randomness (e.g. workload start vertices).
type RNG = rng

// NewRNG returns a deterministic RNG.
func NewRNG(seed uint64) *RNG { return newRNG(seed) }

// Next returns the next 64 random bits.
func (r *rng) Next() uint64 { return r.next() }

// Intn returns a deterministic value in [0,n).
func (r *rng) Intn(n int) int { return int(r.next() % uint64(n)) }
