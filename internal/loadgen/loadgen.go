// Package loadgen drives a serving front end (internal/server) with
// open-loop traffic: arrivals are drawn from a seeded stochastic process
// and submitted on schedule regardless of how the server is coping, the
// way the "millions of users" the ROADMAP targets actually behave. The
// open loop is what makes saturation visible — a closed loop slows its
// own offered load down exactly when the queue fills, hiding the knee of
// the latency-vs-load curve.
//
// Two arrival processes are built in:
//
//   - Poisson: exponential interarrival times at a fixed mean rate, the
//     standard memoryless model of independent users.
//   - Bursty: a two-phase modulated Poisson process — a fraction of each
//     cycle runs at BurstFactor times the mean rate, the remainder at a
//     correspondingly reduced rate so the long-run mean is unchanged.
//     Same average load, much worse tails; the difference between the two
//     curves is what admission control and priorities are for.
//
// Everything is keyed by one uint64 seed through a SplitMix64 generator,
// so under the Sim backend a (seed, rate, mix) triple reproduces the
// exact same arrival schedule, class draws, admission decisions, and
// latency histogram run after run. Under the Real backend the same
// generator paces submissions with wall-clock sleeps.
package loadgen

import (
	"fmt"
	"math"

	"blaze/gen"
	"blaze/internal/exec"
	"blaze/internal/server"
	"blaze/internal/session"
)

// RNG is a deterministic SplitMix64 generator. The zero value is invalid;
// use NewRNG.
type RNG struct{ state uint64 }

// NewRNG returns a generator for seed (0 is mapped to 1 so the stream is
// never degenerate).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 1
	}
	return &RNG{state: seed}
}

// Uint64 returns the next value of the SplitMix64 stream.
func (r *RNG) Uint64() uint64 {
	r.state += gen.Golden
	return gen.Mix64(r.state)
}

// Float64 returns a uniform draw in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns a mean-1 exponential draw.
func (r *RNG) Exp() float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u)
}

// Process selects the arrival process.
type Process int

const (
	// Poisson arrivals: exponential interarrivals at the mean rate.
	Poisson Process = iota
	// Bursty arrivals: modulated Poisson with on/off phases (see the
	// package comment); same mean rate, heavier bursts.
	Bursty
)

// ParseProcess resolves a process name ("poisson", "bursty").
func ParseProcess(name string) (Process, error) {
	switch name {
	case "", "poisson":
		return Poisson, nil
	case "bursty", "burst":
		return Bursty, nil
	}
	return 0, fmt.Errorf("loadgen: unknown arrival process %q (have poisson, bursty)", name)
}

// String returns the process name.
func (p Process) String() string {
	if p == Bursty {
		return "bursty"
	}
	return "poisson"
}

// Class is one request class of the workload mix.
type Class struct {
	// Name labels the class's requests (e.g. the query kind).
	Name string
	// Priority is the admission class requests are submitted under.
	Priority server.Priority
	// Weight is the class's share of arrivals (relative to the other
	// classes' weights; must be positive).
	Weight float64
	// TimeoutNs is the per-request deadline in model time (0 = none).
	TimeoutNs int64
	// Body is the work each request of this class runs; it must be safe
	// to execute many times (each request gets its own session query).
	Body session.Body
}

// Config parameterizes one open-loop run.
type Config struct {
	// RatePerSec is the mean arrival rate in requests per second of model
	// time.
	RatePerSec float64
	// Requests is the total number of arrivals to generate.
	Requests int
	// Process selects Poisson (default) or Bursty arrivals.
	Process Process
	// BurstFactor is the burst-phase rate multiplier (Bursty only;
	// default 4). BurstFrac is the fraction of each cycle spent bursting
	// (default 1/8); BurstFactor*BurstFrac must stay below 1 so the off
	// phase keeps a positive rate. A cycle lasts 64 mean interarrival
	// times.
	BurstFactor float64
	BurstFrac   float64
	// Seed keys the arrival and class-mix draws (0 = 1).
	Seed uint64
	// Classes is the workload mix (at least one, weights positive).
	Classes []Class
}

func (cfg Config) validate() error {
	if !(cfg.RatePerSec > 0) || math.IsInf(cfg.RatePerSec, 1) {
		return fmt.Errorf("loadgen: RatePerSec must be positive and finite, got %g", cfg.RatePerSec)
	}
	if cfg.Requests <= 0 {
		return fmt.Errorf("loadgen: Requests must be positive, got %d", cfg.Requests)
	}
	if len(cfg.Classes) == 0 {
		return fmt.Errorf("loadgen: no request classes")
	}
	for i, c := range cfg.Classes {
		if c.Weight <= 0 {
			return fmt.Errorf("loadgen: class %d (%s) has non-positive weight %g", i, c.Name, c.Weight)
		}
		if c.Body == nil {
			return fmt.Errorf("loadgen: class %d (%s) has no body", i, c.Name)
		}
	}
	if cfg.Process == Bursty {
		bf, frac := cfg.burstShape()
		if bf*frac >= 1 {
			return fmt.Errorf("loadgen: BurstFactor*BurstFrac = %g must stay below 1", bf*frac)
		}
	}
	return nil
}

func (cfg Config) burstShape() (factor, frac float64) {
	factor, frac = cfg.BurstFactor, cfg.BurstFrac
	if factor <= 0 {
		factor = 4
	}
	if frac <= 0 {
		frac = 1.0 / 8
	}
	return factor, frac
}

// Arrivals generates the deterministic arrival schedule for a config: a
// stream of (interarrival, class index) draws. It is exposed separately
// from Run so tests and harnesses can inspect the process without a
// server.
type Arrivals struct {
	cfg         Config
	rng         *RNG
	totalWeight float64
	elapsedNs   int64 // position in the schedule, for burst phasing
	cycleNs     int64
	onRate      float64 // burst-phase rate (arrivals per ns)
	offRate     float64
	rate        float64 // plain Poisson rate (arrivals per ns)
}

// NewArrivals returns the schedule generator for cfg. The config must
// already be valid (Run validates; direct users call cfg.validate via
// Run or ensure validity themselves).
func NewArrivals(cfg Config) *Arrivals {
	a := &Arrivals{
		cfg:  cfg,
		rng:  NewRNG(cfg.Seed),
		rate: cfg.RatePerSec / 1e9,
	}
	for _, c := range cfg.Classes {
		a.totalWeight += c.Weight
	}
	if cfg.Process == Bursty {
		factor, frac := cfg.burstShape()
		// 64 mean interarrival times: long enough that a burst holds
		// several arrivals, short enough that a run of a few hundred
		// requests sees many cycles. Above 6.4e10 requests/s that rounds
		// to 0 ns, so the cycle is held to at least 1 ns.
		a.cycleNs = max(int64(64e9/cfg.RatePerSec), 1)
		a.onRate = a.rate * factor
		a.offRate = a.rate * (1 - factor*frac) / (1 - frac)
	}
	return a
}

// Next draws the wait before the next arrival (model ns) and the class it
// belongs to.
func (a *Arrivals) Next() (waitNs int64, class int) {
	r := a.rate
	if a.cfg.Process == Bursty {
		_, frac := a.cfg.burstShape()
		if phase := a.elapsedNs % a.cycleNs; float64(phase) < frac*float64(a.cycleNs) {
			r = a.onRate
		} else {
			r = a.offRate
		}
	}
	waitNs = int64(a.rng.Exp() / r)
	if waitNs < 1 {
		waitNs = 1
	}
	a.elapsedNs += waitNs
	pick := a.rng.Float64() * a.totalWeight
	for i, c := range a.cfg.Classes {
		pick -= c.Weight
		if pick < 0 {
			return waitNs, i
		}
	}
	return waitNs, len(a.cfg.Classes) - 1
}

// Run submits cfg.Requests arrivals to srv from proc p on the open-loop
// schedule, drains the server, and returns its report over the run's
// window (first submission attempt to last completion). Rejections are
// part of the measurement, not errors; the error return covers only a
// misconfigured run.
//
// Run owns the server's shutdown: it calls Drain, so the server cannot be
// reused afterwards. Under Sim the whole run is deterministic in
// (cfg.Seed, session seed); under Real the schedule paces with sleeps.
func Run(p exec.Proc, srv *server.Server, cfg Config) (server.Report, error) {
	if err := cfg.validate(); err != nil {
		return server.Report{}, err
	}
	arr := NewArrivals(cfg)
	start := p.Now()
	for i := 0; i < cfg.Requests; i++ {
		waitNs, ci := arr.Next()
		p.Sleep(waitNs)
		c := &cfg.Classes[ci]
		req := &server.Request{
			Class:     c.Priority,
			Name:      c.Name,
			Body:      c.Body,
			TimeoutNs: c.TimeoutNs,
		}
		// ErrQueueFull / ErrDraining land in the server's rejection
		// counters; the open loop keeps arriving either way.
		_ = srv.Submit(p, req)
	}
	srv.Drain(p)
	return srv.Report(p.Now() - start), nil
}
