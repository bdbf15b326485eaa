package bench

import (
	"reflect"
	"testing"
)

// servingAt holds each load point of the suite at the default scale.
var servingAt = memoAt(ServingLoadFactors, func(lf float64) []ServingEntry {
	return ServingRun(MustLoad("r2", DefaultScale), lf)
})

// TestServingP99Gate is the CI tail-latency gate: at the fixed subcritical
// load (ServingGateLoadFactor of capacity), interactive p99 must stay
// within ServingGateP99Factor serial service times, with no shedding and
// no queue expiries. A blowup here means priority dispatch, admission
// control, or the session's sharing layers regressed under concurrency.
func TestServingP99Gate(t *testing.T) {
	entries := servingAt[ServingGateLoadFactor]()
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

// TestServingRunDeterministic: the gate load point measured again on a
// fresh stack in the same process produces identical entries — every
// counter, every percentile.
func TestServingRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two more load points; skipped in -short mode")
	}
	d := MustLoad("r2", smokeScale)
	if e1, e2 := ServingRun(d, ServingGateLoadFactor), ServingRun(d, ServingGateLoadFactor); !reflect.DeepEqual(e1, e2) {
		t.Errorf("same seed, different serving measurements:\n%+v\nvs\n%+v", e1, e2)
	}
}
