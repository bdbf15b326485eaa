// Package metrics collects the measurements the paper's evaluation reports:
// total read bytes and average bandwidth (Figures 1, 8, 10), bandwidth
// timelines (Figure 2), per-iteration per-device IO (Figure 3), and memory
// footprint accounting (Figure 12). Timestamps come from exec.Proc clocks,
// so the same collectors work under both wall time and virtual time.
//
// The recording paths sit on the engine's IO hot path (one AddRead and one
// timeline update per request), so both IOStats and Timeline keep one
// cache-line-padded counter block per device: no shared mutex, no false
// sharing between IO procs hammering adjacent devices' counters.
package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
)

// tlShard is one device's private timeline accumulator. Each shard is its
// own allocation with trailing padding, so two IO procs bumping adjacent
// shards never contend on a cache line.
type tlShard struct {
	mu      sync.Mutex
	buckets []int64
	_       [40]byte // pad past the line holding mu+buckets header
}

// Add records bytes at timestamp now (ns) into the shard.
func (sh *tlShard) add(bucketNs, now, bytes int64) {
	idx := int(now / bucketNs)
	if idx < 0 {
		idx = 0
	}
	sh.mu.Lock()
	for len(sh.buckets) <= idx {
		sh.buckets = append(sh.buckets, 0)
	}
	sh.buckets[idx] += bytes
	sh.mu.Unlock()
}

// Timeline accumulates bytes into fixed-width time buckets, producing a
// bandwidth-over-time series like Figure 2. Writers record through
// per-device shards (see Shard); readers merge all shards.
type Timeline struct {
	mu       sync.Mutex // guards shard creation only
	bucketNs int64
	shards   []*tlShard
}

// NewTimeline returns a timeline with the given bucket width in
// nanoseconds.
func NewTimeline(bucketNs int64) *Timeline {
	if bucketNs <= 0 {
		bucketNs = 1e7 // 10 ms
	}
	return &Timeline{bucketNs: bucketNs}
}

// TimelineShard is one writer's contention-free handle into a Timeline.
type TimelineShard struct {
	tl *Timeline
	sh *tlShard
}

// Add records bytes at timestamp now (ns).
func (s *TimelineShard) Add(now, bytes int64) {
	s.sh.add(s.tl.bucketNs, now, bytes)
}

// Shard returns the contention-free writer handle for device dev, creating
// shards as needed. Handles may be retained and used concurrently; two
// distinct devices' handles never contend.
func (t *Timeline) Shard(dev int) *TimelineShard {
	if dev < 0 {
		dev = 0
	}
	t.mu.Lock()
	for len(t.shards) <= dev {
		t.shards = append(t.shards, &tlShard{})
	}
	sh := t.shards[dev]
	t.mu.Unlock()
	return &TimelineShard{tl: t, sh: sh}
}

// BucketNs returns the bucket width.
func (t *Timeline) BucketNs() int64 { return t.bucketNs }

// Series returns the per-bucket bandwidth in bytes/second, merged over all
// shards.
func (t *Timeline) Series() []float64 {
	t.mu.Lock()
	shards := make([]*tlShard, len(t.shards))
	copy(shards, t.shards)
	t.mu.Unlock()
	var out []float64
	for _, sh := range shards {
		sh.mu.Lock()
		if len(sh.buckets) > len(out) {
			grown := make([]float64, len(sh.buckets))
			copy(grown, out)
			out = grown
		}
		for i, b := range sh.buckets {
			out[i] += float64(b) / (float64(t.bucketNs) / 1e9)
		}
		sh.mu.Unlock()
	}
	return out
}

// IdleFraction returns the fraction of buckets in [0, lastNonEmpty] whose
// bandwidth is below thresholdBytesPerSec — the paper's "idle IO periods".
func (t *Timeline) IdleFraction(thresholdBytesPerSec float64) float64 {
	s := t.Series()
	last := -1
	for i, v := range s {
		if v > 0 {
			last = i
		}
	}
	if last < 0 {
		return 1
	}
	idle := 0
	for i := 0; i <= last; i++ {
		if s[i] < thresholdBytesPerSec {
			idle++
		}
	}
	return float64(idle) / float64(last+1)
}

// The per-device read counters, indexes into devCounters.
const (
	cBytes = iota
	cEpoch // bytes since the last EndEpoch
	cRequests
	cPages
	cRetries
	cErrors
	cCoalesced // bytes served by attaching to an in-flight read
	cCoalPages // pages served by attaching to an in-flight read
	nCounters
)

// devCounters is one device's read accounting: eight counters, one cache
// line, so per-device updates from different IO procs never false-share.
type devCounters [nCounters]atomic.Int64

// IOStats aggregates per-device read counters for one execution, with an
// epoch mechanism for per-iteration accounting (Figure 3). Recording is
// atomic per device with no shared lock.
type IOStats struct {
	dev []devCounters
}

// NewIOStats returns stats for n devices.
func NewIOStats(n int) *IOStats {
	return &IOStats{dev: make([]devCounters, n)}
}

// AddRead records one read request of bytes from device dev covering pages
// pages.
func (s *IOStats) AddRead(dev int, bytes int64, pages int) {
	d := &s.dev[dev]
	d[cBytes].Add(bytes)
	d[cEpoch].Add(bytes)
	d[cRequests].Add(1)
	d[cPages].Add(int64(pages))
}

// AddCoalesced records pages delivered by attaching to another request's
// in-flight device read (cross-query IO coalescing): the data reached this
// consumer without a second device read. Coalesced traffic is accounted
// separately from bytes/pages, which keep counting only reads the device
// actually served.
func (s *IOStats) AddCoalesced(dev int, bytes int64, pages int) {
	d := &s.dev[dev]
	d[cCoalesced].Add(bytes)
	d[cCoalPages].Add(int64(pages))
}

// CoalescedBytes returns the bytes delivered by attaching to in-flight
// reads instead of issuing new device reads.
func (s *IOStats) CoalescedBytes() int64 { return s.sum(cCoalesced) }

// CoalescedPages returns the pages delivered by attaching to in-flight
// reads.
func (s *IOStats) CoalescedPages() int64 { return s.sum(cCoalPages) }

// NumDevices returns the device count the stats were sized for.
func (s *IOStats) NumDevices() int { return len(s.dev) }

// AddRetry records one retried read attempt on device dev (a transient
// device error that the retry policy absorbed).
func (s *IOStats) AddRetry(dev int) {
	s.dev[dev][cRetries].Add(1)
}

// AddReadError records one unrecoverable read failure on device dev (a
// permanent fault, or a transient one that exhausted its retry budget).
func (s *IOStats) AddReadError(dev int) {
	s.dev[dev][cErrors].Add(1)
}

// Retries returns the number of read attempts that were retried after a
// transient device error.
func (s *IOStats) Retries() int64 { return s.sum(cRetries) }

// ReadErrors returns the number of unrecoverable read failures surfaced to
// the engine.
func (s *IOStats) ReadErrors() int64 { return s.sum(cErrors) }

// TotalBytes returns the sum over all devices.
func (s *IOStats) TotalBytes() int64 { return s.sum(cBytes) }

// Requests returns the number of read requests issued.
func (s *IOStats) Requests() int64 { return s.sum(cRequests) }

// PagesRead returns the number of 4 kB pages read.
func (s *IOStats) PagesRead() int64 { return s.sum(cPages) }

// sum totals one counter over all devices.
func (s *IOStats) sum(c int) int64 {
	var t int64
	for i := range s.dev {
		t += s.dev[i][c].Load()
	}
	return t
}

// DeviceBytes returns a copy of the per-device byte totals.
func (s *IOStats) DeviceBytes() []int64 {
	out := make([]int64, len(s.dev))
	for i := range s.dev {
		out[i] = s.dev[i][cBytes].Load()
	}
	return out
}

// EndEpoch appends to dst the per-device bytes since the previous EndEpoch
// call, one entry per device, resets the epoch counters, and returns the
// extended slice. The engine calls it once per iteration to produce Figure
// 3's per-iteration skew.
func (s *IOStats) EndEpoch(dst []int64) []int64 {
	for i := range s.dev {
		dst = append(dst, s.dev[i][cEpoch].Swap(0))
	}
	return dst
}

// Skew returns max-min of the slice — Figure 3's y-axis.
func Skew(devBytes []int64) int64 {
	if len(devBytes) == 0 {
		return 0
	}
	min, max := devBytes[0], devBytes[0]
	for _, b := range devBytes[1:] {
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	return max - min
}

// CacheStats is a point-in-time summary of a page cache's counters (the
// pagecache package aggregates its per-shard padded counters into one of
// these).
type CacheStats struct {
	Hits      int64 // pages served from cache
	Misses    int64 // pages read from the device
	Evictions int64 // resident pages displaced
	GhostHits int64 // evicted keys readmitted while still on the ghost list
	Rejected  int64 // puts dropped for violating page-size strictness
	// QuotaRejected counts admissions dropped because the owning query was
	// over its per-query share and held no victim of its own in the target
	// shard (see pagecache admission quotas).
	QuotaRejected int64
}

// HitRate returns hits / (hits + misses), or 0 with no traffic.
func (s CacheStats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// CacheCounters is an atomically updatable per-query view of cache
// traffic. The shared page cache keeps session-wide totals; in session
// mode each query's pipeline additionally bumps one of these so
// concurrent queries' hit rates don't conflate. The zero value is ready
// to use.
type CacheCounters struct {
	hits          atomic.Int64
	misses        atomic.Int64
	quotaRejected atomic.Int64
}

// Add records hits pages served from cache and misses pages that went to
// the device on this query's behalf.
func (c *CacheCounters) Add(hits, misses int64) {
	if hits != 0 {
		c.hits.Add(hits)
	}
	if misses != 0 {
		c.misses.Add(misses)
	}
}

// AddQuotaRejected records admissions dropped because this query was over
// its cache share.
func (c *CacheCounters) AddQuotaRejected(n int64) {
	if n != 0 {
		c.quotaRejected.Add(n)
	}
}

// Snapshot returns the counters as a CacheStats (only the attributable
// fields are populated: Hits, Misses, QuotaRejected).
func (c *CacheCounters) Snapshot() CacheStats {
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		QuotaRejected: c.quotaRejected.Load(),
	}
}

// MemAccount tracks named memory reservations so Figure 12's footprint can
// be reported per workload. Entries are analytic sizes (bytes), not Go heap
// measurements, mirroring the paper's accounting of index, page map, IO
// buffers, bins, and algorithm arrays.
type MemAccount struct {
	mu    sync.Mutex
	items map[string]int64
}

// NewMemAccount returns an empty account.
func NewMemAccount() *MemAccount { return &MemAccount{items: map[string]int64{}} }

// Set records (or replaces) the byte size of a named component.
func (m *MemAccount) Set(name string, bytes int64) {
	m.mu.Lock()
	m.items[name] = bytes
	m.mu.Unlock()
}

// Add increments the byte size of a named component.
func (m *MemAccount) Add(name string, bytes int64) {
	m.mu.Lock()
	m.items[name] += bytes
	m.mu.Unlock()
}

// Total returns the sum of all components.
func (m *MemAccount) Total() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var t int64
	for _, b := range m.items {
		t += b
	}
	return t
}

// Items returns the component sizes sorted by name.
func (m *MemAccount) Items() []MemItem {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MemItem, 0, len(m.items))
	for k, v := range m.items {
		out = append(out, MemItem{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MemItem is one named memory component.
type MemItem struct {
	Name  string
	Bytes int64
}
