package gen

import (
	"hash/fnv"
	"testing"
)

// edgeHash fingerprints a generated edge list.
func edgeHash(src, dst []uint32) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	for i := range src {
		buf[0] = byte(src[i])
		buf[1] = byte(src[i] >> 8)
		buf[2] = byte(src[i] >> 16)
		buf[3] = byte(src[i] >> 24)
		buf[4] = byte(dst[i])
		buf[5] = byte(dst[i] >> 8)
		buf[6] = byte(dst[i] >> 16)
		buf[7] = byte(dst[i] >> 24)
		h.Write(buf)
	}
	return h.Sum64()
}

// TestGoldenDatasets pins the exact bits of every preset at 1/200000 scale,
// and of five at 1/4096, where the edge lists are long enough to be drawn
// as parallel chunks (the 1/4096 hashes were taken from the serial
// generator). The generator must stay bit-identical across platforms, Go
// versions and GOMAXPROCS — EXPERIMENTS.md results are only reproducible if
// the inputs are. If a deliberate generator change breaks this test, update
// the constants AND rerun `blaze-bench -exp all` to refresh EXPERIMENTS.md.
func TestGoldenDatasets(t *testing.T) {
	want := map[string]uint64{
		"r2": 0xc370c3f3b8843859,
		"r3": 0x2eda1406545b8ea9,
		"ur": 0xbeefe70c514b5c71,
		"tw": 0x7e79b6c942628143,
		"sk": 0xa5a06db2076bad6b,
		"fr": 0xe7f947a15ba043f6,
		"hy": 0x2a635fcfd7520537,
	}
	want4096 := map[string]uint64{
		"r2": 0xe3070f99c6cb4080,
		"ur": 0xe011a0eccb4b3c85,
		"sk": 0xfdda6e7c074081f2,
		"tw": 0xcb69536592066557,
		"fr": 0x511ca33692460575,
	}
	for _, c := range []struct {
		scale float64
		want  map[string]uint64
	}{{200000, want}, {4096, want4096}} {
		for _, p := range Presets() {
			w, ok := c.want[p.Short]
			if !ok {
				continue
			}
			sp := p.Scaled(c.scale)
			src, dst := sp.Generate()
			if got := edgeHash(src, dst); got != w {
				t.Errorf("%s at 1/%.0f: edge hash %#x, want %#x — generator output changed", p.Short, c.scale, got, w)
			}
		}
	}
}
