package session

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"blaze/algo"
	"blaze/internal/engine"
	"blaze/internal/exec"
	"blaze/internal/pagecache"
	"blaze/internal/registry"
	"blaze/internal/ssd"
)

// newTestSession builds a blaze-engine session over a small in-memory
// graph for the lifecycle tests.
func newTestSession(t *testing.T, ctx exec.Context, cfg Config) (*Session, *engine.Graph) {
	t.Helper()
	c := testCSR(17, 1200)
	out := engine.FromCSR(ctx, "soak", c, 2, ssd.OptaneSSD, nil, nil)
	cfg.Engine = "blaze"
	cfg.Base = registry.Options{Edges: c.E, Workers: 4, NumDev: 2}
	s, err := New(ctx, out, nil, cfg)
	if err != nil {
		t.Fatalf("session.New: %v", err)
	}
	return s, out
}

// TestNewQueryFailureLeavesNoResidue: a NewQuery that fails during engine
// construction must not leave a reserved slot, a scheduler registration,
// or a quota share behind. Regression test: the pre-fix path registered
// the query with every scheduler and counted it active before attempting
// construction, so each failure leaked both.
func TestNewQueryFailureLeavesNoResidue(t *testing.T) {
	ctx := exec.NewSim()
	cache := pagecache.New(64 * ssd.PageSize)
	s, _ := newTestSession(t, ctx, Config{Cache: cache})

	// Force engine construction to fail after session setup (session.New
	// itself rejects unknown engines, so flip the name underneath it).
	good := s.cfg.Engine
	s.cfg.Engine = "no-such-engine"
	for i := 0; i < 10; i++ {
		if _, err := s.NewQuery(); err == nil {
			t.Fatal("NewQuery with a bogus engine succeeded")
		}
	}
	s.cfg.Engine = good

	if got := s.Active(); got != 0 {
		t.Errorf("active = %d after failed NewQuery attempts, want 0", got)
	}
	for i, sched := range s.Scheds().All() {
		if got := sched.Tracked(); got != 0 {
			t.Errorf("scheduler %d tracks %d queries after failures, want 0", i, got)
		}
	}
	// The failed attempts must not skew the quota split of real queries:
	// two live queries still split the 64-page cache evenly.
	q0, err := s.NewQuery()
	if err != nil {
		t.Fatal(err)
	}
	q1, err := s.NewQuery()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*Query{q0, q1} {
		if quota, ok := cache.QuotaOf(q.ID); !ok || quota != 32 {
			t.Errorf("query %d quota = (%d,%v), want (32,true)", q.ID, quota, ok)
		}
	}
	s.Finish(q0)
	s.Finish(q1)
}

// TestRunCleansUpOnNewQueryFailure: when a later NewQuery fails mid-batch,
// Run must Finish the queries it already created. Regression test: the
// pre-fix path returned immediately, leaving the earlier queries holding
// slots, scheduler accounts, and quota shares forever.
func TestRunCleansUpOnNewQueryFailure(t *testing.T) {
	ctx := exec.NewSim()
	cache := pagecache.New(64 * ssd.PageSize)
	s, _ := newTestSession(t, ctx, Config{Cache: cache, MaxQueries: 1})
	body := func(p exec.Proc, q *Query) error { return nil }
	ctx.Run("main", func(p exec.Proc) {
		// Two bodies against one slot: the second NewQuery hits ErrNoSlots
		// before anything runs.
		if _, err := s.Run(p, body, body); !errors.Is(err, ErrNoSlots) {
			t.Errorf("Run error = %v, want ErrNoSlots", err)
		}
	})
	if got := s.Active(); got != 0 {
		t.Errorf("active = %d after failed Run, want 0", got)
	}
	for i, sched := range s.Scheds().All() {
		if got := sched.Tracked(); got != 0 {
			t.Errorf("scheduler %d tracks %d queries after failed Run, want 0", i, got)
		}
	}
	// The slot freed by the unwind is usable again.
	q, err := s.NewQuery()
	if err != nil {
		t.Fatalf("NewQuery after failed Run: %v", err)
	}
	s.Finish(q)
}

// TestQuotaSplitNeverOversubscribes: when active queries outnumber cache
// pages, the per-owner quotas must still sum to at most the capacity.
// Regression test: the pre-fix "at least one page each" clamp handed every
// query a one-page quota, overcommitting the cache by active-capPages
// pages.
func TestQuotaSplitNeverOversubscribes(t *testing.T) {
	ctx := exec.NewSim()
	cache := pagecache.New(2 * ssd.PageSize) // 2-page cache
	s, _ := newTestSession(t, ctx, Config{Cache: cache})
	var qs []*Query
	for i := 0; i < 4; i++ {
		q, err := s.NewQuery()
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	capPages := cache.Bytes() / ssd.PageSize
	var sum int64
	denied := 0
	for _, q := range qs {
		quota, ok := cache.QuotaOf(q.ID)
		if !ok {
			t.Errorf("query %d has no quota with a shared cache", q.ID)
			continue
		}
		sum += quota
		if quota == 0 {
			denied++
		}
	}
	if sum > capPages {
		t.Errorf("quotas sum to %d pages over a %d-page cache", sum, capPages)
	}
	if denied != 2 {
		t.Errorf("%d queries denied, want 2 (4 queries, 2 pages)", denied)
	}
	// As queries finish, the denied ones are promoted to real shares.
	s.Finish(qs[0])
	s.Finish(qs[1])
	for _, q := range qs[2:] {
		if quota, ok := cache.QuotaOf(q.ID); !ok || quota != 1 {
			t.Errorf("query %d quota = (%d,%v) after finishes, want (1,true)", q.ID, quota, ok)
		}
	}
	s.Finish(qs[2])
	s.Finish(qs[3])
}

// TestSessionSoak: hundreds of sequential short queries through one
// session leave bounded state everywhere — the scheduler query tables, the
// session's live set, the cache owner quotas — and quota accounting stays
// exact throughout; every traversal after the first reuses the IO buffers
// and bin Manager the first one left in the session's run pool.
func TestSessionSoak(t *testing.T) {
	ctx := exec.NewSim()
	cache := pagecache.New(64 * ssd.PageSize)
	s, out := newTestSession(t, ctx, Config{Cache: cache, MaxQueries: 4})
	const rounds = 300
	var ms runtime.MemStats
	var allocs []uint64 // bytes each traversal allocated
	ctx.Run("main", func(p exec.Proc) {
		for i := 0; i < rounds; i++ {
			q, err := s.NewQuery()
			if err != nil {
				t.Fatalf("round %d: NewQuery: %v", i, err)
			}
			if quota, ok := cache.QuotaOf(q.ID); !ok || quota != 64 {
				t.Fatalf("round %d: solo query quota = (%d,%v), want (64,true)", i, quota, ok)
			}
			// Run a real traversal through the engine every 32nd round so the
			// scheduler and cache paths see actual IO, not just registration.
			if i%32 == 0 {
				runtime.ReadMemStats(&ms)
				before := ms.TotalAlloc
				if _, err := algo.BFS(q.Sys, p, out, 0); err != nil {
					t.Fatalf("round %d: BFS: %v", i, err)
				}
				runtime.ReadMemStats(&ms)
				allocs = append(allocs, ms.TotalAlloc-before)
			}
			s.Finish(q)
			if quota, ok := cache.QuotaOf(q.ID); ok {
				t.Fatalf("round %d: finished query still holds quota %d", i, quota)
			}
		}
	})
	// Every query's engine draws from the session's run pool, so only the
	// first traversal builds IO buffers and a bin Manager (~7 MB here);
	// later ones reopen them and allocate frontiers and per-round
	// bookkeeping, ~30 kB. A sixteenth of the first leaves that room to grow
	// twentyfold, and is far below what a query building its own costs.
	for i, b := range allocs[1:] {
		if 16*b > allocs[0] {
			t.Errorf("traversal %d allocated %d bytes, more than 1/16 of the first's %d: it did not reuse the pooled state",
				i+1, b, allocs[0])
		}
	}
	if got := s.Active(); got != 0 {
		t.Errorf("active = %d after soak, want 0", got)
	}
	for i, sched := range s.Scheds().All() {
		if got := sched.Tracked(); got != 0 {
			t.Errorf("scheduler %d tracks %d queries after soak, want 0", i, got)
		}
	}
}

// TestSessionNoProcOutlivesIt: under Real, a session that serves a few
// concurrent BFS queries, twice over so the second batch runs on its run
// pool, and finishes them all leaves no goroutine behind once each batch
// returns: neither a query's proc nor any proc of its rounds. The count is
// taken inside Run, whose own wait for every proc would otherwise hide one.
func TestSessionNoProcOutlivesIt(t *testing.T) {
	ctx := exec.NewReal()
	cache := pagecache.New(64 * ssd.PageSize)
	s, out := newTestSession(t, ctx, Config{Cache: cache, MaxQueries: 4})
	bfs := func(p exec.Proc, q *Query) error {
		_, err := algo.BFS(q.Sys, p, out, 0)
		return err
	}
	ctx.Run("main", func(p exec.Proc) {
		base := runtime.NumGoroutine()
		for batch := range 2 {
			if _, err := s.Run(p, bfs, bfs, bfs); err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
			n := runtime.NumGoroutine()
			for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
				n = runtime.NumGoroutine()
			}
			if n > base {
				t.Errorf("batch %d: %d goroutines, %d before: a proc outlived its query", batch, n, base)
			}
		}
	})
	if got := s.Active(); got != 0 {
		t.Errorf("active = %d after the session served its queries, want 0", got)
	}
}
