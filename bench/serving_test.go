package bench

import (
	"reflect"
	"sync"
	"testing"
)

// servingGate is the gate load point, run once for the gate (and as one
// side of the determinism check).
var servingGate = sync.OnceValue(func() []ServingEntry {
	return ServingRun(MustLoad("r2", DefaultScale), ServingGateLoadFactor)
})

// TestServingP99Gate is the CI tail-latency gate: at the fixed subcritical
// load (ServingGateLoadFactor of capacity), interactive p99 must stay
// within ServingGateP99Factor serial service times, with no shedding and
// no queue expiries. A blowup here means priority dispatch, admission
// control, or the session's sharing layers regressed under concurrency.
func TestServingP99Gate(t *testing.T) {
	entries := servingGate()
	var inter, batch *ServingEntry
	for i := range entries {
		switch entries[i].Class {
		case "interactive":
			inter = &entries[i]
		case "batch":
			batch = &entries[i]
		}
	}
	if inter == nil || batch == nil {
		t.Fatalf("missing class rows: %+v", entries)
	}
	if inter.Completed == 0 || batch.Completed == 0 {
		t.Fatalf("classes must complete work at %.1fx load: %+v", ServingGateLoadFactor, entries)
	}
	if inter.ServiceNs <= 0 {
		t.Fatalf("no serial service-time floor measured: %+v", inter)
	}
	if bound := int64(ServingGateP99Factor * float64(inter.ServiceNs)); inter.P99Ns > bound {
		t.Errorf("interactive p99 %.3fms over gate %.3fms (%.0fx serial %.3fms) at %.1fx load",
			float64(inter.P99Ns)/1e6, float64(bound)/1e6, ServingGateP99Factor,
			float64(inter.ServiceNs)/1e6, ServingGateLoadFactor)
	}
	if inter.Rejected != 0 || inter.Expired != 0 {
		t.Errorf("interactive shed %d / expired %d at subcritical load, want 0/0",
			inter.Rejected, inter.Expired)
	}
	if inter.GoodputPerSec <= 0 {
		t.Errorf("interactive goodput %.2f/s, want positive", inter.GoodputPerSec)
	}
}

// TestServingRunDeterministic: the same load point measured again on a
// fresh stack produces identical entries — every counter, every percentile.
// This is the full-precision form of the committed CSV's byte identity.
func TestServingRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("a second full load point; skipped in -short mode")
	}
	e1 := servingGate()
	e2 := ServingRun(MustLoad("r2", DefaultScale), ServingGateLoadFactor)
	if !reflect.DeepEqual(e1, e2) {
		t.Errorf("same seed, different serving measurements:\n%+v\nvs\n%+v", e1, e2)
	}
}
