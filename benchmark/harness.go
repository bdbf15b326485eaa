package main

import (
	"fmt"
	"os"
	"os/signal"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"

	"blaze/algo"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/frontier"
	"blaze/internal/metrics"
	"blaze/internal/trace"
)

// env is what a workload's set-up receives: the seed every input is drawn
// from, a private directory for graph files, and the span recorder of a
// traced run (nil in end-to-end runs).
type env struct {
	seed uint64
	dir  string
	rec  *recorder
	// refNs accumulates time a set-up spent in serial references (source
	// selection, edge counts); it is taken out of setup_s.
	refNs time.Duration
	// layers collects the set-up layer metrics (see env.note).
	layers map[string]float64
}

// reference runs fn and books its time as reference work.
func (e *env) reference(fn func()) {
	t0 := time.Now()
	fn()
	e.refNs += time.Since(t0)
}

// tracing switches one pass to the traced path: the benchmark's spans go
// to rec and the engine's own rings to tracer. A nil *tracing is the
// untraced path every end-to-end metric comes from.
type tracing struct {
	rec    *recorder
	tracer *trace.Tracer
}

func (t *tracing) recorder() *recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

func (t *tracing) engineTracer() *trace.Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

// opSample is one measured operation.
type opSample struct {
	Ns         int64
	Allocs     int64
	AllocBytes int64
	ReadBytes  int64
	Edges      int64 // from the serial reference, never from a program counter
}

// passResult is one run through every operation of a workload.
type passResult struct {
	ops []opSample
	// failed counts operations whose result was wrong; shed counts
	// requests the server refused, expired or finished late (serve_mix
	// offers more than capacity on purpose, so shed is an outcome, not an
	// error).
	failed, shed int
	// offered, when set, is the number of operations the pass attempted
	// (serve_mix reports one averaged sample for a whole sweep of requests).
	offered int
	// extra holds workload-specific values of this pass, keyed by metric
	// name; an end-to-end name here overrides the generic computation.
	extra map[string]float64
}

// instance is a set-up workload.
type instance interface {
	// warm runs one untimed operation so pools and lazy set-up are filled.
	warm() error
	pass(t *tracing) (passResult, error)
	// verify checks the retained results against the serial references and
	// returns how many checks it made and how many failed.
	verify() (checks, failed int, err error)
	// layers returns the probe metrics of this workload (traced runs only).
	layers() (map[string]float64, error)
	close() error
}

// meter takes the time, allocation and device-read deltas between start
// and stop. Reading runtime/metrics does not stop the world, so the
// counters cost the measured operation nothing measurable.
type meter struct {
	stats  *metrics.IOStats // may be nil
	read0  int64
	allocs [2]rtmetrics.Sample
	t0     time.Time
}

func startMeter(stats *metrics.IOStats) *meter {
	m := &meter{stats: stats, allocs: [2]rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}}
	if stats != nil {
		m.read0 = stats.TotalBytes()
	}
	rtmetrics.Read(m.allocs[:])
	m.t0 = time.Now()
	return m
}

func (m *meter) stop() opSample {
	ns := time.Since(m.t0)
	before := [2]uint64{m.allocs[0].Value.Uint64(), m.allocs[1].Value.Uint64()}
	rtmetrics.Read(m.allocs[:])
	s := opSample{
		Ns:         int64(ns),
		Allocs:     int64(m.allocs[0].Value.Uint64() - before[0]),
		AllocBytes: int64(m.allocs[1].Value.Uint64() - before[1]),
	}
	if m.stats != nil {
		s.ReadBytes = m.stats.TotalBytes() - m.read0
	}
	return s
}

// measure runs fn as one metered operation.
func measure(stats *metrics.IOStats, fn func() error) (opSample, error) {
	m := startMeter(stats)
	err := fn()
	return m.stop(), err
}

// liveHeapMB forces two collections (the second frees what finalizers and
// sync.Pool victims released in the first) and reads the heap in use while
// keep — graph, engine, pool, cache — is still referenced.
func liveHeapMB(keep any) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return float64(ms.HeapAlloc) / 1e6
}

// spanSystem decorates an algo.System so that every EdgeMap, VertexMap and
// EndIteration a query makes becomes a child span of the query's span.
type spanSystem struct {
	algo.System
	rec    *recorder
	parent int
	query  int
	// onEdgeMap, when set, sees each EdgeMap's input frontier before the
	// call (bfs_sparse records a mid-traversal frontier for the probes).
	onEdgeMap func(call int, f *frontier.VertexSubset)
	calls     int
	// model records the spans on the calling proc's clock instead of the
	// host's (serve_mix).
	model bool
}

func (s *spanSystem) begin(p exec.Proc, name string) int {
	if s.model {
		return s.rec.beginAt(name, s.parent, s.query, p.Now())
	}
	return s.rec.begin(name, s.parent, s.query)
}

func (s *spanSystem) end(p exec.Proc, id int) {
	if s.model {
		s.rec.endAt(id, p.Now())
		return
	}
	s.rec.end(id)
}

func (s *spanSystem) EdgeMap(p exec.Proc, g *engine.Graph, f *frontier.VertexSubset, fns algo.EdgeFuncs, output bool) (*frontier.VertexSubset, error) {
	if s.onEdgeMap != nil {
		s.onEdgeMap(s.calls, f)
	}
	s.calls++
	id := s.begin(p, "engine.EdgeMap")
	out, err := s.System.EdgeMap(p, g, f, fns, output)
	s.end(p, id)
	return out, err
}

func (s *spanSystem) VertexMap(p exec.Proc, f *frontier.VertexSubset, fn func(uint32) bool) *frontier.VertexSubset {
	id := s.begin(p, "engine.VertexMap")
	out := s.System.VertexMap(p, f, fn)
	s.end(p, id)
	return out
}

func (s *spanSystem) EndIteration(p exec.Proc) {
	id := s.begin(p, "algo.EndIteration")
	s.System.EndIteration(p)
	s.end(p, id)
}

// traceQuery runs fn as one query span under t and hands it the system to
// use: sys itself when untraced, the span decorator otherwise.
func traceQuery(t *tracing, name string, query int, sys algo.System, fn func(sys algo.System) error) error {
	rec := t.recorder()
	if rec == nil {
		return fn(sys)
	}
	id := rec.begin(name, -1, query)
	err := fn(&spanSystem{System: sys, rec: rec, parent: id, query: query})
	rec.end(id)
	return err
}

// tempDir makes the private directory of one set-up inside the checkout
// (the contract forbids writing elsewhere; the OS cache still serves the
// reads).
func tempDir() (string, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(tmpRoot, "blaze-bench-*")
}

const tmpRoot = ".bench_tmp"

// liveDir is the directory of the set-up in use, for the signal handler:
// deferred cleanups do not run when a signal ends the process.
var liveDir atomic.Value

// cleanOnSignal removes the live set-up's files if the run is interrupted.
func cleanOnSignal() {
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-c
		if dir, _ := liveDir.Load().(string); dir != "" {
			os.RemoveAll(dir)
		}
		os.Remove(tmpRoot)
		os.Exit(130)
	}()
}

// setUp makes the temp dir and the instance; the returned cleanup removes
// both and is safe on every exit path.
func setUp(w *workloadSpec, seed uint64, rec *recorder) (instance, func() error, time.Duration, map[string]float64, error) {
	dir, err := tempDir()
	if err != nil {
		return nil, nil, 0, nil, err
	}
	liveDir.Store(dir)
	e := &env{seed: seed, dir: dir, rec: rec}
	t0 := time.Now()
	inst, err := w.new(e)
	took := time.Since(t0) - e.refNs
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, 0, nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	cleanup := func() error {
		cerr := inst.close()
		if rerr := os.RemoveAll(dir); cerr == nil {
			cerr = rerr
		}
		return cerr
	}
	return inst, cleanup, took, e.layers, nil
}
