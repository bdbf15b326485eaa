package bench

import (
	"testing"

	"blaze/internal/fault"
	"blaze/internal/registry"
	"blaze/internal/ssd"
)

func TestRunRejectsUnknownSystem(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown system did not panic")
		}
	}()
	Run(MustLoad("r2", coarse), Opts{System: "nonsense", Query: "bfs"})
}

func TestRunRejectsUnknownQuery(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("unknown query did not panic")
		}
	}()
	Run(MustLoad("r2", coarse), Opts{System: "blaze", Query: "nonsense"})
}

func TestOptsDefaults(t *testing.T) {
	o := Opts{}.withDefaults()
	if o.NumDev != 1 || o.Workers != 16 || o.Ratio != 0.5 || o.PRIters != 15 {
		t.Errorf("defaults wrong: %+v", o)
	}
	if o.Profile.RandBytesPerSec == 0 {
		t.Error("no default profile")
	}
}

func TestAvgBWZeroElapsed(t *testing.T) {
	if (Result{}).AvgBW() != 0 {
		t.Error("zero-time result should report zero bandwidth")
	}
}

func TestRunTimelineOptIn(t *testing.T) {
	d := MustLoad("r2", coarse)
	r := Run(d, Opts{System: "blaze", Query: "spmv"})
	if r.Timeline != nil {
		t.Error("timeline collected without opt-in")
	}
	r = Run(d, Opts{System: "blaze", Query: "spmv", TimelineBucketNs: 1e5})
	if r.Timeline == nil || len(r.Timeline.Series()) == 0 {
		t.Error("opt-in timeline empty")
	}
}

func TestRunPR1SingleIteration(t *testing.T) {
	d := MustLoad("r2", coarse)
	r := Run(d, Opts{System: "blaze", Query: "pr1"})
	if len(r.IterBytes) != 1 {
		t.Errorf("pr1 recorded %d iterations, want 1", len(r.IterBytes))
	}
}

func TestRunBCRecordsLevels(t *testing.T) {
	d := MustLoad("r2", coarse)
	r := Run(d, Opts{System: "blaze", Query: "bc"})
	if r.Levels < 2 {
		t.Errorf("BC recorded %d levels", r.Levels)
	}
}

// TestRunFaultDrillReachesSelfPlacedDevices: the harness-wide DeviceOpts
// reach the devices an engine builds itself, so under permanent faults
// graphene and blaze-scaleout fail like blaze instead of running
// fault-free.
func TestRunFaultDrillReachesSelfPlacedDevices(t *testing.T) {
	d := MustLoad("r2", coarse)
	DeviceOpts = []ssd.DeviceOptions{fault.Policy{Seed: 1, PermanentRate: 1}.DeviceOptions()}
	defer func() { DeviceOpts = nil }()
	for _, o := range []Opts{
		{System: "blaze", Query: "spmv"},
		{System: "graphene", Query: "spmv"},
		{System: "blaze-scaleout", Query: "spmv", Options: registry.Options{Machines: 2}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s completed with every page permanently unreadable", o.System)
				}
			}()
			Run(d, o)
		}()
	}
}
