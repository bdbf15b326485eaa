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
// Generation is deterministic: it uses a local splitmix64 generator rather
// than math/rand, so datasets are bit-identical across Go versions and
// platforms. It is also independent of GOMAXPROCS. Generate cuts the edge
// list into contiguous chunks and draws them in parallel, and each chunk
// jumps its generator to exactly the state the serial stream has at its
// first edge. The jump is exact because splitmix64's state advances by the
// constant Golden on every draw, so the state before draw j is
// start + j·Golden (mod 2^64). Every edge of a preset takes the same number
// of draws: one per level for R-MAT, that plus one for windowed, two for
// uniform.
package gen

import (
	"fmt"
	"math"
	"math/bits"

	"blaze/internal/par"
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
// slices have length p.E. Large lists are drawn as contiguous chunks on up
// to GOMAXPROCS goroutines; the output is the same at every GOMAXPROCS.
func (p Preset) Generate() (src, dst []uint32) {
	if p.V == 0 || p.E == 0 {
		panic("gen: preset not scaled (V/E are zero)")
	}
	src = make([]uint32, p.E)
	dst = make([]uint32, p.E)
	p.fill(src, dst, par.Chunks(p.E, 0))
	return src, dst
}

// fill draws the preset's edges into src and dst as k contiguous chunks.
// Every edge consumes a fixed number of draws, so chunk w starts its stream
// where the serial stream stands at its first edge, and the result does not
// depend on k.
func (p Preset) fill(src, dst []uint32, k int) {
	levels := bits.Len32(p.V - 1) // the least levels with 2^levels >= V
	g := drawer{
		src: src, dst: dst, k: k, n: p.V, start: newRNG(p.Seed).state, levels: levels,
		q: quadrants{thresh(p.A), thresh(p.A + p.B), thresh(p.A + p.B + p.C)},
	}
	switch p.Kind {
	case KindRMAT:
		g.draws = uint64(levels)
		par.Run(k, g, drawer.rmat)
	case KindUniform:
		g.draws = 2
		par.Run(k, g, drawer.uniform)
	case KindWindowed:
		g.draws = uint64(levels) + 1
		g.window = max(uint64(float64(p.V)*p.Window), 4)
		par.Run(k, g, drawer.windowed)
	}
}

// thresh returns the integer form of the quadrant test u < p on a 53-bit
// draw k, where u = float64(k)/2^53: u < p exactly when k < thresh(p). Both
// k/2^53 and p·2^53 are exact in float64 (scaling by a power of two), and k
// is an integer, so k/2^53 < p ⟺ k < p·2^53 ⟺ k < ⌈p·2^53⌉.
func thresh(p float64) uint64 {
	switch {
	case !(p > 0): // NaN included: u < NaN never holds
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// drawer is one generation pass, copied to every chunk.
type drawer struct {
	src, dst []uint32
	k        int    // chunks
	n        uint32 // vertices
	start    uint64 // the serial stream's initial state
	draws    uint64 // draws per edge
	levels   int
	q        quadrants
	window   uint64 // KindWindowed's destination window, in vertices
}

// chunk returns chunk w's slices of the edge list and the generator as the
// serial stream stands at its first edge: splitmix64 adds Golden to its
// state once per draw, so jumping lo·draws draws ahead is one multiply-add.
func (g *drawer) chunk(w int) (src, dst []uint32, r rng) {
	lo, hi := par.Bounds(int64(len(g.src)), g.k, w)
	return g.src[lo:hi], g.dst[lo:hi], rng{state: g.start + uint64(lo)*g.draws*Golden}
}

// quadrants holds thresh of R-MAT's a, a+b and a+b+c.
type quadrants struct{ a, ab, abc uint64 }

// pick chooses an R-MAT quadrant for a draw without branches, returning
// each bit as an all-ones or zero mask. With u the draw's float, the
// serial switch sets no bit below a, the column bit t below a+b, the row
// bit s below a+b+c and both above; so s is clear when u < a or u < a+b,
// and t is clear when u < a or a+b ≤ u < a+b+c.
func (q quadrants) pick(x uint64) (s, t uint64) {
	k := x >> 11
	// k < 2^53, so k-th wraps past 2^63, setting bit 63, exactly when k < th.
	ltA := (k - q.a) >> 63
	ltAB := (k - q.ab) >> 63
	ltABC := (k - q.abc) >> 63
	sClear := ltA | ltAB
	tClear := ltA | ltABC&^ltAB
	return sClear - 1, tClear - 1 // 1 → 0, 0 → all ones
}

// rmat fills chunk w with R-MAT edges: one draw per level picks the
// quadrant, setting that level's source and destination bits.
func (g drawer) rmat(w int) int64 {
	src, dst, r := g.chunk(w)
	q, n, top := g.q, uint64(g.n), uint64(1)<<g.levels
	for i := range src {
		var s, t uint64
		for bit := uint64(1); bit < top; bit <<= 1 {
			sm, tm := q.pick(r.next())
			s |= sm & bit
			t |= tm & bit
		}
		src[i] = uint32(s % n)
		dst[i] = uint32(t % n)
	}
	return -1
}

// uniform fills chunk w with edges whose endpoints are uniform.
func (g drawer) uniform(w int) int64 {
	src, dst, r := g.chunk(w)
	n := uint64(g.n)
	for i := range src {
		src[i] = uint32(r.next() % n)
		dst[i] = uint32(r.next() % n)
	}
	return -1
}

// windowed fills chunk w with edges whose sources follow the R-MAT row
// distribution and whose destinations lie within a window around the
// source, producing the high-locality, high-diameter structure of web
// graphs. The row bit is R-MAT's column bit: set in the top-right and
// bottom-right quadrants.
func (g drawer) windowed(w int) int64 {
	src, dst, r := g.chunk(w)
	q, n, top, win := g.q, int64(g.n), uint64(1)<<g.levels, g.window
	for i := range src {
		var s uint64
		for bit := uint64(1); bit < top; bit <<= 1 {
			_, row := q.pick(r.next())
			s |= row & bit
		}
		s %= uint64(n)
		// Destination within +/- window/2 of the source, wrapping.
		off := int64(r.next()%win) - int64(win/2)
		src[i] = uint32(s)
		dst[i] = uint32((int64(s) + off + n) % n)
	}
	return -1
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
