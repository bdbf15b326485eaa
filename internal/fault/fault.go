// Package fault provides injectable device-fault policies for exercising
// the IO pipeline's failure handling. FlashGraph's premise — and Blaze's —
// is an *array* of commodity SSDs, where transient read errors, latency
// spikes, and the occasional dead drive are operational reality; this
// package makes those conditions reproducible so the engine's error
// propagation and shutdown protocol can be tested deterministically.
//
// An Injector wraps one device's ssd.Backing. Every decision is a pure
// function of (seed, device, local page), so the same policy faults the
// same pages on every run; under the virtual-time backend the whole
// execution — including retries and failure timing — is bit-deterministic.
// Three fault classes are supported:
//
//   - Transient errors: a page's first TransientFails read attempts fail
//     with an error marked transient; the device's RetryPolicy absorbs
//     them (ssd.IsTransient), charging backoff in model time.
//   - Permanent errors: every attempt on the page fails; retries are not
//     attempted and the error surfaces through the engine.
//   - Latency spikes: a fraction of requests carries extra modeled
//     latency (a straggling device), charged with the transfer cost.
package fault

import (
	"fmt"
	"sync"

	"blaze/gen"
	"blaze/internal/ssd"
)

// Kind classifies an injected error.
type Kind int

const (
	// Transient errors succeed once the page's TransientFails budget is
	// consumed; the device retry policy is expected to absorb them.
	Transient Kind = iota
	// Permanent errors fail on every attempt.
	Permanent
)

// Error is one injected device read error.
type Error struct {
	Dev   int
	Local int64
	Kind  Kind
}

// Error implements the error interface.
func (e *Error) Error() string {
	k := "transient"
	if e.Kind == Permanent {
		k = "permanent"
	}
	return fmt.Sprintf("fault: injected %s read error on device %d, local page %d", k, e.Dev, e.Local)
}

// Transient marks the error for ssd.IsTransient.
func (e *Error) Transient() bool { return e.Kind == Transient }

// Policy describes one deterministic fault model. The zero value injects
// nothing.
type Policy struct {
	// Seed keys every per-page decision; two injectors with equal seeds
	// and rates fault exactly the same pages.
	Seed uint64
	// TransientRate is the fraction of pages whose reads fail with a
	// retryable error.
	TransientRate float64
	// TransientFails is how many consecutive attempts on a transient-
	// faulty page fail before a read succeeds (default 1). Set it beyond
	// the device's retry budget to turn transient faults into
	// unrecoverable failures.
	TransientFails int
	// PermanentRate is the fraction of pages that are permanently
	// unreadable.
	PermanentRate float64
	// SpikeRate is the fraction of requests delayed by SpikeNs of extra
	// modeled latency (a slow-device straggler).
	SpikeRate float64
	SpikeNs   int64
}

// Enabled reports whether the policy can inject anything.
func (p Policy) Enabled() bool {
	return p.TransientRate > 0 || p.PermanentRate > 0 || (p.SpikeRate > 0 && p.SpikeNs > 0)
}

// DeviceOptions packages the policy as device-construction options for
// ssd.NewMemArray and the engine's graph constructors. For a disabled
// policy the options are a no-op.
func (p Policy) DeviceOptions() ssd.DeviceOptions {
	if !p.Enabled() {
		return ssd.DeviceOptions{}
	}
	return ssd.DeviceOptions{
		WrapBacking: func(dev int, b ssd.Backing) ssd.Backing { return New(p, dev, b) },
	}
}

// Injector wraps one device's Backing under a Policy. It is safe for
// concurrent use by multiple procs.
type Injector struct {
	p     Policy
	dev   int
	inner ssd.Backing

	mu       sync.Mutex
	attempts map[int64]int // transient pages -> failed attempts so far
}

// New wraps inner with policy p for device dev.
func New(p Policy, dev int, inner ssd.Backing) *Injector {
	if p.TransientFails < 1 {
		p.TransientFails = 1
	}
	return &Injector{p: p, dev: dev, inner: inner, attempts: map[int64]int{}}
}

// mix is one SplitMix64 step from state x: a cheap, well-distributed
// 64-bit hash.
func mix(x uint64) uint64 { return gen.Mix64(x + gen.Golden) }

// roll returns a uniform [0,1) draw for (seed, dev, local, stream); the
// stream separates the transient, permanent, and spike decisions so their
// rates are independent.
func (in *Injector) roll(local int64, stream uint64) float64 {
	h := mix(in.p.Seed ^ mix(uint64(in.dev)+stream<<32) ^ mix(uint64(local)))
	h = mix(h + stream)
	return float64(h>>11) / float64(1<<53)
}

// ReadLocalPage implements ssd.Backing, injecting errors per the policy
// before delegating to the wrapped backing.
func (in *Injector) ReadLocalPage(local int64, buf []byte) error {
	if in.p.PermanentRate > 0 && in.roll(local, 1) < in.p.PermanentRate {
		return &Error{Dev: in.dev, Local: local, Kind: Permanent}
	}
	if in.p.TransientRate > 0 && in.roll(local, 2) < in.p.TransientRate {
		in.mu.Lock()
		n := in.attempts[local]
		if n < in.p.TransientFails {
			in.attempts[local] = n + 1
			in.mu.Unlock()
			return &Error{Dev: in.dev, Local: local, Kind: Transient}
		}
		// The page heals for this read and faults afresh next time, so
		// iterative algorithms keep exercising the retry path.
		delete(in.attempts, local)
		in.mu.Unlock()
	}
	return in.inner.ReadLocalPage(local, buf)
}

// LocalPages implements ssd.Backing.
func (in *Injector) LocalPages() int64 { return in.inner.LocalPages() }

// ExtraLatencyNs implements ssd.LatencyInjector: requests hit by the spike
// decision carry SpikeNs of additional modeled transfer time.
func (in *Injector) ExtraLatencyNs(start int64, n int) int64 {
	if in.p.SpikeRate <= 0 || in.p.SpikeNs <= 0 {
		return 0
	}
	if in.roll(start, 3) < in.p.SpikeRate {
		return in.p.SpikeNs
	}
	return 0
}
