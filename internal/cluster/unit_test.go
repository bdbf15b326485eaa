package cluster

import (
	"testing"

	"blaze/gen"
	"blaze/internal/exec"
)

// TestHashOwnershipBalances: hashed ownership spreads skewed in-degree
// mass evenly — the property range and plain-modulo partitioning lack on
// R-MAT graphs (see the owner doc comment).
func TestHashOwnershipBalances(t *testing.T) {
	ctx := exec.NewSim()
	cl := New(ctx, DefaultConfig(8, 1000))
	const n = 1 << 16
	var mass [8]int64
	var total int64
	for v := uint32(0); v < n; v++ {
		// Self-similar skew: degree decays with the number of set bits,
		// mimicking R-MAT's bit-wise bias.
		deg := int64(1)
		if v&0x3 == 0 {
			deg = 8
		}
		m := cl.owner(v, n)
		if m < 0 || m >= 8 {
			t.Fatalf("owner(%d) = %d", v, m)
		}
		mass[m] += deg
		total += deg
	}
	for m, b := range mass {
		share := float64(b) / float64(total)
		if share < 0.08 || share > 0.18 {
			t.Errorf("machine %d share %.3f outside [0.08,0.18]", m, share)
		}
	}
}

// TestOwnerEdgeBalanceProperty: the property the package comment claims —
// across generated graph families (R-MAT's self-similar in-degree skew and
// the uniform control) and machine counts, hashed destination ownership
// keeps the busiest machine's edge share within 1.25x of the mean, so no
// machine becomes the cluster's straggler by construction.
func TestOwnerEdgeBalanceProperty(t *testing.T) {
	presets := []gen.Preset{
		{Kind: gen.KindRMAT, A: 0.57, B: 0.19, C: 0.19, Seed: 101, V: 1 << 14, E: 200_000, Locality: 0.1},
		{Kind: gen.KindRMAT, A: 0.55, B: 0.2, C: 0.2, Seed: 202, V: 1 << 13, E: 120_000, Locality: 0.1},
		{Kind: gen.KindUniform, Seed: 303, V: 1 << 14, E: 200_000},
		{Kind: gen.KindUniform, Seed: 404, V: 1 << 12, E: 80_000},
	}
	for _, pr := range presets {
		_, dst := pr.Generate()
		for _, machines := range []int{2, 4, 8} {
			ctx := exec.NewSim()
			cl := New(ctx, DefaultConfig(machines, int64(len(dst))))
			share := make([]int64, machines)
			for _, d := range dst {
				share[cl.owner(d, pr.V)]++
			}
			var max int64
			for _, s := range share {
				if s > max {
					max = s
				}
			}
			mean := float64(len(dst)) / float64(machines)
			if ratio := float64(max) / mean; ratio >= 1.25 {
				t.Errorf("%v seed %d, M=%d: max/mean edge share %.3f >= 1.25 (shares %v)",
					pr.Kind, pr.Seed, machines, ratio, share)
			}
		}
	}
}

func TestOwnerDeterministic(t *testing.T) {
	ctx := exec.NewSim()
	cl := New(ctx, DefaultConfig(4, 1000))
	for v := uint32(0); v < 1000; v++ {
		if cl.owner(v, 1000) != cl.owner(v, 1000) {
			t.Fatal("owner not deterministic")
		}
	}
}
