// Package pagecache implements a sharded, concurrent cache of 4 kB graph
// pages keyed by (graph identity, logical page number).
//
// The FlashGraph baseline uses it as described in the paper (§V-B:
// FlashGraph's LRU page cache makes it 12-20% faster than Blaze on the
// high-locality sk2005 graph). The Blaze engines can also enable it via
// engine.Config.PageCache — the paper lists "more advanced eviction
// policies" than its random IO-buffer eviction as future work, and the
// pagecache ablation experiment quantifies exactly that gap.
//
// Design (DESIGN.md §10):
//
//   - The key space is hash-partitioned over N power-of-two shards, each
//     with its own mutex, so concurrent IO procs probing and filling the
//     cache contend only when they touch the same shard.
//   - Eviction is CLOCK (second chance) per shard: every resident page's
//     reference bit is cleared once before the page can be evicted, so any
//     page hit since the last sweep survives the next one. PolicyLRU keeps
//     the global move-to-front list (single shard) that is FlashGraph's
//     model; no blaze-family cache uses it.
//   - A small per-shard ghost list remembers recently evicted keys (no
//     data). A page that returns while still remembered is readmitted with
//     its reference bit already set, so one sequential scan cannot flush
//     the hot set (scan resistance).
//   - Page storage comes from a pooled chunk arena (1 MB chunks shared
//     through a sync.Pool) instead of a per-entry make([]byte, 4096), so
//     cache churn across runs does not churn the GC.
//   - Graphs are identified by an interned name, not a *graph.CSR pointer:
//     the cache never pins a graph's index against GC, and a reloaded
//     graph reuses its previous entries instead of leaving them
//     unreachable-but-resident.
//
// Multi-page runs are served through ProbeRun, which can satisfy a fully
// cached merged run or trim a cached prefix/suffix off a partially cached
// one (the reader side is pipeline.cacheView).
package pagecache

import (
	"sync"
	"sync/atomic"

	"blaze/gen"
	"blaze/internal/graph"
	"blaze/internal/metrics"
)

// ID is an interned graph identity within one cache (see Cache.GraphID).
// Keying by a small stable id instead of a *graph.CSR keeps the cache from
// pinning graph indexes against GC and lets a reloaded graph hit the
// entries its previous incarnation inserted.
type ID uint32

// Key identifies a cached page.
type Key struct {
	Graph   ID
	Logical int64
}

// Policy selects the per-shard eviction policy.
type Policy uint8

const (
	// PolicyCLOCK is the default: sharded second-chance eviction with a
	// ghost list for scan resistance.
	PolicyCLOCK Policy = iota
	// PolicyLRU is the single-shard global LRU (move-to-front on every
	// touch, evict the back). It exists for the FlashGraph baseline's
	// faithful §III-A configuration and nothing else.
	PolicyLRU
)

// String returns the policy's display name.
func (p Policy) String() string {
	if p == PolicyLRU {
		return "lru"
	}
	return "clock"
}

// chunkPages is the arena chunk granularity: 1 MB chunks amortize
// allocation and let partially filled shards grow lazily.
const chunkPages = 256

// chunkPool recycles arena chunks across caches (the "pooled arena"):
// benchmark harnesses build and drop many caches per process.
var chunkPool = sync.Pool{
	New: func() any { return make([]byte, chunkPages*graph.PageSize) },
}

// noFrame marks an empty map slot / list end.
const noFrame = int32(-1)

// NoOwner is the owner id of pages admitted outside session mode; they are
// exempt from admission quotas.
const NoOwner = int32(-1)

// frame is one resident page slot.
type frame struct {
	key   Key
	data  []byte // arena-backed, exactly graph.PageSize bytes
	ref   bool   // CLOCK reference bit
	owner int32  // admitting query (session mode) or NoOwner
	// prev/next thread the LRU list (PolicyLRU only); head = MRU.
	prev, next int32
}

// ownerAcct is one query's admission accounting under a quota.
type ownerAcct struct {
	max      int64 // resident-page quota
	resident atomic.Int64
	rejected atomic.Int64
}

// ownerTable maps query owners to their quota accounting. It is shared by
// every shard; reads on the put path take the read lock only when the put
// carries an owner, so single-query executions never touch it.
type ownerTable struct {
	mu sync.RWMutex
	m  map[int32]*ownerAcct
}

// get returns owner's accounting, or nil when no quota is set.
func (t *ownerTable) get(owner int32) *ownerAcct {
	if owner == NoOwner {
		return nil
	}
	t.mu.RLock()
	a := t.m[owner]
	t.mu.RUnlock()
	return a
}

// ghostList is a bounded FIFO of recently evicted keys. slot[k] is k's ring
// position; a ring entry is live only while slot still maps it there, so
// removals are O(1) map deletes and stale ring entries are skipped when
// their position is reused.
type ghostList struct {
	ring []Key
	slot map[Key]int
	pos  int
}

func newGhostList(cap int) ghostList {
	if cap < 1 {
		cap = 1
	}
	return ghostList{ring: make([]Key, cap), slot: make(map[Key]int, cap)}
}

// add remembers k, forgetting the oldest remembered key if full.
func (g *ghostList) add(k Key) {
	old := g.ring[g.pos]
	if p, ok := g.slot[old]; ok && p == g.pos {
		delete(g.slot, old)
	}
	g.ring[g.pos] = k
	g.slot[k] = g.pos
	g.pos = (g.pos + 1) % len(g.ring)
}

// take reports whether k was remembered and forgets it.
func (g *ghostList) take(k Key) bool {
	if _, ok := g.slot[k]; !ok {
		return false
	}
	delete(g.slot, k)
	return true
}

// shardCounters are one shard's hit/miss/evict accounting. They are
// updated under the shard mutex but padded (each shard is its own
// allocation, with trailing pad below) so two IO procs hammering adjacent
// shards never false-share a counter line.
type shardCounters struct {
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	ghostHits atomic.Int64
	rejected  atomic.Int64
}

// shard is one lock domain of the cache.
type shard struct {
	mu     sync.Mutex
	policy Policy
	cap    int // resident-page budget
	items  map[Key]int32
	frames []frame  // grown lazily up to cap
	arena  [][]byte // chunked page storage
	hand   int32    // CLOCK hand (frame index)
	head   int32    // LRU MRU end
	tail   int32    // LRU eviction end
	ghost  ghostList
	owners *ownerTable // shared quota accounting (see Cache.SetQuota)

	shardCounters
	_ [64]byte // keep the counters off the next allocation's line
}

func newShard(cap int, policy Policy, owners *ownerTable) *shard {
	return &shard{
		policy: policy,
		cap:    cap,
		items:  make(map[Key]int32, cap),
		head:   noFrame,
		tail:   noFrame,
		ghost:  newGhostList(cap),
		owners: owners,
	}
}

// frameData returns frame i's arena slot, allocating chunks on demand.
func (s *shard) frameData(i int) []byte {
	ci, off := i/chunkPages, (i%chunkPages)*graph.PageSize
	for len(s.arena) <= ci {
		s.arena = append(s.arena, nil)
	}
	if s.arena[ci] == nil {
		s.arena[ci] = chunkPool.Get().([]byte)
	}
	return s.arena[ci][off : off+graph.PageSize : off+graph.PageSize]
}

// lruUnlink removes frame i from the recency list.
func (s *shard) lruUnlink(i int32) {
	f := &s.frames[i]
	if f.prev != noFrame {
		s.frames[f.prev].next = f.next
	} else {
		s.head = f.next
	}
	if f.next != noFrame {
		s.frames[f.next].prev = f.prev
	} else {
		s.tail = f.prev
	}
	f.prev, f.next = noFrame, noFrame
}

// lruPushFront makes frame i the MRU.
func (s *shard) lruPushFront(i int32) {
	f := &s.frames[i]
	f.prev, f.next = noFrame, s.head
	if s.head != noFrame {
		s.frames[s.head].prev = i
	}
	s.head = i
	if s.tail == noFrame {
		s.tail = i
	}
}

// touch records a hit on frame i under the shard's policy.
func (s *shard) touch(i int32) {
	if s.policy == PolicyLRU {
		s.lruUnlink(i)
		s.lruPushFront(i)
		return
	}
	s.frames[i].ref = true
}

// get copies the page into out under the shard lock and reports a hit.
// Counting is left to the caller so run probes can attribute interior
// pages correctly.
func (s *shard) get(key Key, out []byte) bool {
	s.mu.Lock()
	i, ok := s.items[key]
	if ok {
		copy(out[:graph.PageSize], s.frames[i].data)
		s.touch(i)
	}
	s.mu.Unlock()
	return ok
}

// evictFrame picks the victim frame index per policy. All frames are
// resident when this is called (put only evicts at capacity).
func (s *shard) evictFrame() int32 {
	if s.policy == PolicyLRU {
		return s.tail
	}
	// CLOCK sweep: clear reference bits until an unreferenced frame comes
	// under the hand. Terminates within two passes (the first pass clears
	// every bit).
	for {
		f := &s.frames[s.hand]
		if !f.ref {
			victim := s.hand
			s.hand = (s.hand + 1) % int32(len(s.frames))
			return victim
		}
		f.ref = false
		s.hand = (s.hand + 1) % int32(len(s.frames))
	}
}

// evictOwnFrame picks a victim among frames owned by owner, preferring an
// unreferenced one from the CLOCK hand onward (LRU: the coldest one), or
// noFrame when the owner holds nothing in this shard. The global hand does
// not move — a quota eviction recycles the owner's own budget, it is not a
// sweep over everyone's pages.
func (s *shard) evictOwnFrame(owner int32) int32 {
	if s.policy == PolicyLRU {
		for i := s.tail; i != noFrame; i = s.frames[i].prev {
			if s.frames[i].owner == owner {
				return i
			}
		}
		return noFrame
	}
	n := int32(len(s.frames))
	victim := noFrame
	for k := int32(0); k < n; k++ {
		i := (s.hand + k) % n
		f := &s.frames[i]
		if f.owner != owner {
			continue
		}
		if !f.ref {
			return i
		}
		if victim == noFrame {
			victim = i
		}
	}
	return victim
}

// put inserts or updates the page on behalf of owner and returns what
// happened. At capacity an owner over its quota may only displace its own
// frames: if it holds none in this shard the admission is rejected, so a
// scanning query can never push a peer's working set out beyond its share.
func (s *shard) put(key Key, data []byte, owner int32) PutResult {
	var res PutResult
	s.mu.Lock()
	if i, ok := s.items[key]; ok {
		copy(s.frames[i].data, data[:graph.PageSize])
		s.touch(i)
		s.mu.Unlock()
		return PutStored
	}
	acct := s.owners.get(owner)
	ghostHit := s.policy == PolicyCLOCK && s.ghost.take(key)
	var i int32
	if len(s.frames) < s.cap {
		i = int32(len(s.frames))
		s.frames = append(s.frames, frame{prev: noFrame, next: noFrame, owner: NoOwner})
		s.frames[i].data = s.frameData(int(i))
	} else {
		if acct != nil && acct.resident.Load() >= acct.max {
			// Over quota at capacity: recycle one of the owner's own
			// frames, or drop the admission.
			i = s.evictOwnFrame(owner)
			if i == noFrame {
				acct.rejected.Add(1)
				s.mu.Unlock()
				return PutQuotaRejected
			}
		} else {
			i = s.evictFrame()
		}
		old := s.frames[i]
		delete(s.items, old.key)
		if oa := s.owners.get(old.owner); oa != nil {
			oa.resident.Add(-1)
		}
		if s.policy == PolicyCLOCK {
			s.ghost.add(old.key)
		} else {
			s.lruUnlink(i)
		}
		s.evictions.Add(1)
		res |= PutEvicted
	}
	f := &s.frames[i]
	f.key = key
	f.owner = owner
	if acct != nil {
		acct.resident.Add(1)
	}
	copy(f.data, data[:graph.PageSize])
	// Fresh pages get no reference bit (one chance: a pure scan cannot
	// displace the hot set); pages returning from the ghost list are
	// readmitted hot.
	f.ref = ghostHit
	if ghostHit {
		s.ghostHits.Add(1)
		res |= PutGhostHit
	}
	if s.policy == PolicyLRU {
		s.lruPushFront(i)
	}
	s.items[key] = i
	s.mu.Unlock()
	return res | PutStored
}

// PutResult reports what a Put did, for trace instrumentation.
type PutResult uint8

const (
	// PutStored: the page is now resident (inserted or updated in place).
	PutStored PutResult = 1 << iota
	// PutEvicted: the insert displaced another resident page.
	PutEvicted
	// PutGhostHit: the key was on the ghost list and was readmitted with
	// its reference bit set.
	PutGhostHit
	// PutQuotaRejected: the admission was dropped because the owner was
	// over its quota and held no evictable frame of its own in the target
	// shard. The page is NOT resident.
	PutQuotaRejected
)

// Cache is a thread-safe sharded page cache.
type Cache struct {
	shards []*shard
	mask   uint64
	cap    int // total resident-page budget
	owners *ownerTable

	idMu sync.Mutex
	ids  map[string]ID
}

// shardCount picks the power-of-two shard count for capPages resident
// pages: enough shards to spread IO-proc contention, never so many that a
// shard drops below 32 pages (tiny shards evict erratically), capped at
// 64. PolicyLRU always uses one shard so its recency order — and so the
// FlashGraph baseline's modeled timings — match the legacy global list
// exactly.
func shardCount(capPages int, policy Policy) int {
	if policy == PolicyLRU {
		return 1
	}
	n := 1
	for n < 64 && capPages/(n*2) >= 32 {
		n <<= 1
	}
	return n
}

// New returns a sharded CLOCK cache holding up to capBytes of pages. A
// non-positive capacity yields a disabled cache (all gets miss, puts are
// dropped).
func New(capBytes int64) *Cache { return NewWithPolicy(capBytes, PolicyCLOCK) }

// NewWithPolicy returns a cache with an explicit eviction policy. The
// policy follows the engine being modelled, never a user setting: New for
// every blaze-family cache, PolicyLRU inside flashgraph.New only.
func NewWithPolicy(capBytes int64, policy Policy) *Cache {
	capPages := int(capBytes / graph.PageSize)
	c := &Cache{
		cap:    capPages,
		owners: &ownerTable{m: map[int32]*ownerAcct{}},
		ids:    map[string]ID{},
	}
	if capPages <= 0 {
		return c
	}
	n := shardCount(capPages, policy)
	c.mask = uint64(n - 1)
	c.shards = make([]*shard, n)
	per, extra := capPages/n, capPages%n
	for i := range c.shards {
		sc := per
		if i < extra {
			sc++
		}
		if sc < 1 {
			sc = 1
		}
		c.shards[i] = newShard(sc, policy, c.owners)
	}
	return c
}

// SetQuota bounds owner's resident pages to pages (session mode: each
// concurrent query gets a share of the capacity). A non-positive quota
// removes the bound. Quotas should be set before the owner admits pages —
// pages already resident are not retroactively charged.
func (c *Cache) SetQuota(owner int32, pages int64) {
	if !c.Enabled() || owner == NoOwner {
		return
	}
	c.owners.mu.Lock()
	if pages <= 0 {
		delete(c.owners.m, owner)
	} else if a := c.owners.m[owner]; a != nil {
		a.max = pages
	} else {
		c.owners.m[owner] = &ownerAcct{max: pages}
	}
	c.owners.mu.Unlock()
}

// DenyOwner gives owner a zero-page quota: at capacity its admissions can
// only recycle frames it already holds (none, for a fresh query), so it
// effectively bypasses the cache. The session uses this when active
// queries outnumber cache pages — the overflow queries are denied rather
// than letting per-owner quotas sum past capacity. SetQuota(owner, n) or
// SetQuota(owner, 0) lifts the denial.
func (c *Cache) DenyOwner(owner int32) {
	if !c.Enabled() || owner == NoOwner {
		return
	}
	c.owners.mu.Lock()
	if a := c.owners.m[owner]; a != nil {
		a.max = 0
	} else {
		c.owners.m[owner] = &ownerAcct{max: 0}
	}
	c.owners.mu.Unlock()
}

// QuotaOf returns owner's resident-page quota and whether one is set. A
// (0, true) result means the owner is denied admission (see DenyOwner);
// (0, false) means unbounded.
func (c *Cache) QuotaOf(owner int32) (pages int64, ok bool) {
	if c == nil {
		return 0, false
	}
	if a := c.owners.get(owner); a != nil {
		return a.max, true
	}
	return 0, false
}

// OwnerResident returns owner's resident page count under its quota (0
// without a quota).
func (c *Cache) OwnerResident(owner int32) int64 {
	if c == nil {
		return 0
	}
	if a := c.owners.get(owner); a != nil {
		return a.resident.Load()
	}
	return 0
}

// OwnerRejected returns the number of owner's admissions dropped by its
// quota.
func (c *Cache) OwnerRejected(owner int32) int64 {
	if c == nil {
		return 0
	}
	if a := c.owners.get(owner); a != nil {
		return a.rejected.Load()
	}
	return 0
}

// Enabled reports whether the cache can hold at least one page.
func (c *Cache) Enabled() bool { return c != nil && len(c.shards) > 0 }

// GraphID interns name and returns its stable identity within this cache.
// Two graphs with the same name — e.g. a graph and its later reload from
// the same files — share an identity, so reloading never strands resident
// entries. Callers that mutate a graph's pages in place must DropGraph
// first (graph files in this repository are immutable datasets).
func (c *Cache) GraphID(name string) ID {
	if !c.Enabled() {
		return 0
	}
	c.idMu.Lock()
	id, ok := c.ids[name]
	if !ok {
		id = ID(len(c.ids) + 1)
		c.ids[name] = id
	}
	c.idMu.Unlock()
	return id
}

// DropGraph evicts every resident page of the named graph (for callers
// that reload changed content under an existing name). The name stays
// interned so outstanding IDs remain valid.
func (c *Cache) DropGraph(name string) {
	if !c.Enabled() {
		return
	}
	c.idMu.Lock()
	id, ok := c.ids[name]
	c.idMu.Unlock()
	if !ok {
		return
	}
	for si, s := range c.shards {
		s.mu.Lock()
		// Rebuild the shard without the dropped graph's frames. Survivors
		// keep their data, owners and reference bits; LRU recency order is
		// preserved by re-inserting from the cold end. Owner resident
		// counts are released wholesale first — the surviving reinserts
		// charge them back.
		for i := range s.frames {
			if a := c.owners.get(s.frames[i].owner); a != nil {
				a.resident.Add(-1)
			}
		}
		fresh := newShard(s.cap, s.policy, c.owners)
		fresh.hits.Store(s.hits.Load())
		fresh.misses.Store(s.misses.Load())
		fresh.evictions.Store(s.evictions.Load())
		fresh.ghostHits.Store(s.ghostHits.Load())
		fresh.rejected.Store(s.rejected.Load())
		reinsert := func(i int32) {
			f := s.frames[i]
			if f.key.Graph == id {
				return
			}
			fresh.put(f.key, f.data, f.owner)
			if f.ref {
				fresh.touch(fresh.items[f.key])
			}
		}
		if s.policy == PolicyLRU {
			for i := s.tail; i != noFrame; i = s.frames[i].prev {
				reinsert(i)
			}
		} else {
			for i := range s.frames {
				reinsert(int32(i))
			}
		}
		for _, ch := range s.arena {
			if ch != nil {
				chunkPool.Put(ch)
			}
		}
		c.shards[si] = fresh
		s.mu.Unlock()
	}
}

// hash spreads (graph, logical) over the shards (splitmix64 finalizer).
func (k Key) hash() uint64 {
	return gen.Mix64(uint64(k.Logical)*gen.Golden + uint64(k.Graph)*0xBF58476D1CE4E5B9)
}

func (c *Cache) shardOf(k Key) *shard { return c.shards[k.hash()&c.mask] }

// Put inserts a copy of data, evicting per the shard policy as needed. It
// is page-size-strict: data must be exactly graph.PageSize bytes, or the
// put is rejected (and counted) — caching a short entry would leave a
// later probe's destination with a stale tail.
func (c *Cache) Put(key Key, data []byte) PutResult {
	return c.PutOwned(key, data, NoOwner)
}

// PutOwned is Put on behalf of a query owner (session mode): the admission
// is charged against the owner's SetQuota budget, and at capacity an
// over-quota owner can only displace its own frames (or the put returns
// PutQuotaRejected). NoOwner admissions are exempt.
func (c *Cache) PutOwned(key Key, data []byte, owner int32) PutResult {
	if !c.Enabled() {
		return 0
	}
	if len(data) != graph.PageSize {
		c.shards[0].rejected.Add(1)
		return 0
	}
	return c.shardOf(key).put(key, data, owner)
}

// ProbeRun checks the n consecutive pages {base + k*stride, k < n} of one
// merged device run against the cache and serves the longest cached prefix
// and suffix by copying them into out (page k at out[k*PageSize:]).
// It returns the prefix and suffix page counts; prefix+suffix == n means
// the whole run was served. Interior cached pages are not served — the
// device read must be one contiguous span — and count as misses, since
// they will be read from the device anyway (truthful hit-rate accounting
// for the ablation).
//
// stride is the logical-page distance between device-adjacent pages
// (NumDevices for a striped array, 1 for self-placed devices).
func (c *Cache) ProbeRun(g ID, base, stride int64, n int, out []byte) (prefix, suffix int) {
	if !c.Enabled() || n <= 0 || len(out) < n*graph.PageSize {
		return 0, 0
	}
	for prefix < n {
		k := Key{Graph: g, Logical: base + int64(prefix)*stride}
		if !c.shardOf(k).get(k, out[prefix*graph.PageSize:]) {
			break
		}
		prefix++
	}
	for prefix+suffix < n {
		j := n - 1 - suffix
		k := Key{Graph: g, Logical: base + int64(j)*stride}
		if !c.shardOf(k).get(k, out[j*graph.PageSize:]) {
			break
		}
		suffix++
	}
	served := prefix + suffix
	if served > 0 {
		c.shardOf(Key{Graph: g, Logical: base}).hits.Add(int64(served))
	}
	if served < n {
		c.shardOf(Key{Graph: g, Logical: base + int64(prefix)*stride}).
			misses.Add(int64(n - served))
	}
	return prefix, suffix
}

// Len returns the number of resident pages.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// StatsDetail returns the full counter set, aggregated over shards.
func (c *Cache) StatsDetail() metrics.CacheStats {
	var d metrics.CacheStats
	if c == nil {
		return d
	}
	for _, s := range c.shards {
		d.Hits += s.hits.Load()
		d.Misses += s.misses.Load()
		d.Evictions += s.evictions.Load()
		d.GhostHits += s.ghostHits.Load()
		d.Rejected += s.rejected.Load()
	}
	c.owners.mu.RLock()
	for _, a := range c.owners.m {
		d.QuotaRejected += a.rejected.Load()
	}
	c.owners.mu.RUnlock()
	return d
}

// Bytes returns the cache capacity in bytes (for memory accounting).
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	return int64(c.cap) * graph.PageSize
}
