package pipeline

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"blaze/internal/costmodel"
	"blaze/internal/exec"
	"blaze/internal/fault"
	"blaze/internal/frontier"
	"blaze/internal/graph"
	"blaze/internal/metrics"
	"blaze/internal/pagecache"
	"blaze/internal/ssd"
)

// mergeRuns and mergeGaps are the two request-coalescing rules Merge
// replaced, kept as its oracles: Blaze's device-contiguous runs of up to max
// pages, and Graphene's windows that read through gaps up to gapPages wide,
// capped at maxPages, never across a partition of pagesPerPart pages.
func mergeRuns(max int) func(pages []int64, i int) (int, int) {
	return func(pages []int64, i int) (int, int) {
		run := 1
		for run < max && i+run < len(pages) && pages[i+run] == pages[i]+int64(run) {
			run++
		}
		return run, i + run
	}
}

func mergeGaps(maxPages, gapPages int, pagesPerPart int64) func(pages []int64, i int) (int, int) {
	return func(pages []int64, i int) (int, int) {
		start := pages[i]
		end := start // inclusive last page
		part := start / pagesPerPart
		j := i + 1
		for j < len(pages) {
			next := pages[j]
			if next/pagesPerPart != part {
				break
			}
			if next-end-1 > int64(gapPages) {
				break
			}
			if next-start+1 > int64(maxPages) {
				break
			}
			end = next
			j++
		}
		return int(end - start + 1), j
	}
}

type mergeCase struct {
	name                string
	pages               []int64
	i                   int
	m                   Merge
	wantPages, wantNext int
}

func checkRequests(t *testing.T, cases []mergeCase) {
	t.Helper()
	for _, c := range cases {
		if n, next := c.m.next(c.pages, c.i); n != c.wantPages || next != c.wantNext {
			t.Errorf("%s: %+v at %d = (%d pages, next %d), want (%d, %d)", c.name, c.m, c.i, n, next, c.wantPages, c.wantNext)
		}
	}
}

// TestMergeRuns: Merge at Blaze's settings (GapPages 0, no partitions)
// coalesces device-contiguous runs of up to MaxPages pages.
func TestMergeRuns(t *testing.T) {
	runs := []int64{0, 1, 2, 3, 4, 6, 7, 10}
	checkRequests(t, []mergeCase{
		{"cap stops a longer run", runs, 0, Merge{MaxPages: 4}, 4, 4},
		{"gap after a run ends it", runs, 4, Merge{MaxPages: 4}, 1, 5},
		{"run then a gap", runs, 5, Merge{MaxPages: 4}, 2, 7},
		{"list end", runs, 7, Merge{MaxPages: 4}, 1, 8},
		{"single-page requests", runs, 0, Merge{MaxPages: 1}, 1, 1},
		{"whole contiguous prefix under a wide cap", runs, 0, Merge{MaxPages: 8}, 5, 5},
	})
}

// TestMergeGaps: Merge at Graphene's settings reads through gaps up to
// GapPages wide, capped at MaxPages, never across a partition.
func TestMergeGaps(t *testing.T) {
	checkRequests(t, []mergeCase{
		{"gap within width is read through", []int64{0, 2, 3}, 0, Merge{16, 1, 100}, 4, 3},
		{"gap wider than width splits", []int64{0, 3, 4}, 0, Merge{16, 1, 100}, 1, 1},
		{"cap counts amplified pages", []int64{0, 2, 4, 6}, 0, Merge{5, 1, 100}, 5, 3},
		{"cap excludes the page that would exceed it", []int64{0, 2, 4, 6}, 0, Merge{4, 1, 100}, 3, 2},
		{"partition boundary splits adjacent pages", []int64{6, 7, 8, 9}, 0, Merge{16, 4, 8}, 2, 2},
		{"zero gap is run merging", []int64{5, 6, 8}, 0, Merge{16, 0, 100}, 2, 2},
	})
}

// FuzzMergeRequests walks a random sorted page list request by request
// under random settings: every request equals the old rule's it stands for,
// the requests cover every active page exactly once, and none exceeds
// MaxPages, reads through a gap wider than GapPages or crosses a partition.
func FuzzMergeRequests(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2}, uint8(4), uint8(0), uint8(0))
	f.Add([]byte{0, 1, 0, 2, 0, 0, 5, 0}, uint8(16), uint8(1), uint8(8))
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(0), uint8(3), uint8(4))
	f.Fuzz(func(t *testing.T, gaps []byte, maxPages, gapPages, partPages uint8) {
		var pages []int64
		page := int64(-1)
		for _, g := range gaps {
			page += 1 + int64(g%16)
			pages = append(pages, page)
		}
		m := Merge{MaxPages: int(maxPages % 32), GapPages: int(gapPages % 8), PartPages: int64(partPages % 32)}
		perPart := m.PartPages
		if perPart == 0 {
			perPart = math.MaxInt64
		}
		oracles := []func([]int64, int) (int, int){mergeGaps(m.MaxPages, m.GapPages, perPart)}
		if m.GapPages == 0 && m.PartPages == 0 {
			oracles = append(oracles, mergeRuns(m.MaxPages))
		}
		for i := 0; i < len(pages); {
			n, next := m.next(pages, i)
			for _, oracle := range oracles {
				if wn, wnext := oracle(pages, i); n != wn || next != wnext {
					t.Fatalf("%+v at %d of %v = (%d, %d), the old rule gives (%d, %d)", m, i, pages, n, next, wn, wnext)
				}
			}
			start, end := pages[i], pages[i]+int64(n) // [start, end)
			if next <= i || pages[next-1] != end-1 {
				t.Fatalf("%+v at %d of %v: (%d, %d) does not end on the last active page it takes in", m, i, pages, n, next)
			}
			if next < len(pages) && pages[next] < end {
				t.Fatalf("%+v at %d of %v: the request covers active page %d, left for the next one", m, i, pages, pages[next])
			}
			if n > max(m.MaxPages, 1) {
				t.Fatalf("%+v at %d of %v: %d pages", m, i, pages, n)
			}
			for k := i + 1; k < next; k++ {
				if gap := pages[k] - pages[k-1] - 1; gap > int64(m.GapPages) {
					t.Fatalf("%+v at %d of %v: reads through a %d-page gap", m, i, pages, gap)
				}
			}
			if m.PartPages > 0 && start/m.PartPages != (end-1)/m.PartPages {
				t.Fatalf("%+v at %d of %v: [%d, %d) crosses a partition", m, i, pages, start, end)
			}
			i = next
		}
	})
}

func TestBufferCount(t *testing.T) {
	const bufLen = 4 * ssd.PageSize
	cases := []struct {
		name   string
		budget int64
		numDev int
		pages  int64
		want   int
	}{
		{"budget divides into buffers", 64 * bufLen, 2, 1 << 20, 64},
		{"floor of two per device", bufLen, 4, 1 << 20, 8},
		{"cap at pages plus the floor", 1 << 30, 2, 10, 14},
		{"floor wins over a tiny frontier", 0, 3, 1, 6},
	}
	for _, c := range cases {
		if got := BufferCount(c.budget, bufLen, c.numDev, c.pages); got != c.want {
			t.Errorf("%s: BufferCount = %d, want %d", c.name, got, c.want)
		}
	}
}

var backends = []struct {
	name string
	mk   func() exec.Context
}{
	{"sim", func() exec.Context { return exec.NewSim() }},
	{"real", func() exec.Context { return exec.NewReal() }},
}

// testCSR is a deterministic random graph whose adjacency spans a few
// hundred pages.
func testCSR(seed int64) *graph.CSR {
	rng := rand.New(rand.NewSource(seed))
	const v, e = 4096, 200_000
	src, dst := make([]uint32, e), make([]uint32, e)
	for i := range src {
		src[i], dst[i] = uint32(rng.Intn(v)), uint32(rng.Intn(v))
	}
	return graph.MustBuild(v, src, dst)
}

func memSource(ctx exec.Context, name string, c *graph.CSR, numDev int, stats *metrics.IOStats, opts ...ssd.DeviceOptions) Source {
	return Source{Name: name, CSR: c, Arr: ssd.NewMemArray(ctx, 0, numDev, ssd.OptaneSSD, c.Adj, stats, nil, opts...)}
}

func testSpec(srcs ...Source) Spec {
	return Spec{
		Sources:     srcs,
		Model:       costmodel.Default(),
		Procs:       2,
		MergePages:  4,
		BufferBytes: 8 * 4 * ssd.PageSize,
		CacheOwner:  pagecache.NoOwner,
		Query:       -1,
		ProcName:    "io",
	}
}

// outcome is what one full Open → Start → Drain → Recover → Close cycle
// left behind.
type outcome struct {
	images    [][]byte // per source: every delivered page at its logical offset
	err       error
	front     *Front
	count     int  // buffers the round was sized for
	recovered int  // buffers Recover popped
	freeShut  bool // free refuses a push after Close
	fillShut  bool // filled is closed and drained after Close
}

// runFront drives one front with two sinks over the full frontier.
func runFront(t *testing.T, ctx exec.Context, s Spec) outcome {
	t.Helper()
	return reopenFront(t, ctx, nil, s)
}

// reopenFront is runFront on fr, reopened (nil opens a new Front).
func reopenFront(t *testing.T, ctx exec.Context, fr *Front, s Spec) outcome {
	t.Helper()
	var o outcome
	for _, src := range s.Sources {
		o.images = append(o.images, make([]byte, src.CSR.NumPages()*ssd.PageSize))
	}
	ctx.Run("main", func(p exec.Proc) {
		fr, err := Reopen(fr, ctx, p, frontier.All(s.Sources[0].CSR.V), s)
		if fr == nil {
			t.Errorf("Open on a full frontier returned no front (err %v)", err)
			return
		}
		fr.Start()
		var mu sync.Mutex
		wg := ctx.NewWaitGroup()
		wg.Add(2)
		for i := 0; i < 2; i++ {
			ctx.Go("sink", func(sp exec.Proc) {
				fr.Drain(sp, new([ClaimBatch]*Buffer), func(buf *Buffer) {
					sp.Sync()
					mu.Lock()
					for pg := 0; pg < buf.NumPages; pg++ {
						logical := s.Sources[buf.Src].Arr.Logical(buf.Dev, buf.Start+int64(pg))
						copy(o.images[buf.Src][logical*ssd.PageSize:], buf.Data[pg*ssd.PageSize:(pg+1)*ssd.PageSize])
					}
					mu.Unlock()
				})
				wg.Done(sp)
			})
		}
		wg.Wait(p)
		o.front, o.count = fr, fr.count
		o.recovered = fr.Recover(p)
		o.err = fr.Close(p)
		o.freeShut = !fr.free.Push(p, &Buffer{})
		_, ok := fr.filled.Pop(p)
		o.fillShut = !ok
	})
	return o
}

// checkImages compares what the sinks saw with the adjacency bytes.
func checkImages(t *testing.T, what string, s Spec, o outcome) {
	t.Helper()
	for k, src := range s.Sources {
		if !bytes.Equal(o.images[k][:len(src.CSR.Adj)], src.CSR.Adj) {
			t.Errorf("%s: source %q: delivered pages differ from the adjacency", what, src.Name)
		}
	}
}

func checkShutdown(t *testing.T, what string, o outcome) {
	t.Helper()
	if o.recovered != o.count {
		t.Errorf("%s: recovered %d buffers, round was stocked with %d", what, o.recovered, o.count)
	}
	if !o.freeShut || !o.fillShut {
		t.Errorf("%s: queues left open after Close (free closed %v, filled closed %v)", what, o.freeShut, o.fillShut)
	}
}

// settle waits for goroutines spawned by a real-backend run to exit.
func settle(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestFrontDeliversEveryPage: with and without a page cache, cold and warm,
// the sinks see exactly the adjacency; a warm covering cache issues no
// device read at all; every buffer comes back and both queues end closed.
func TestFrontDeliversEveryPage(t *testing.T) {
	c := testCSR(1)
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx := be.mk()
			stats := metrics.NewIOStats(2)
			s := testSpec(memSource(ctx, "g", c, 2, stats))

			off := runFront(t, ctx, s)
			if off.err != nil {
				t.Fatal(off.err)
			}
			checkImages(t, "cache off", s, off)
			checkShutdown(t, "cache off", off)
			if got := stats.PagesRead(); got != c.NumPages() {
				t.Errorf("cache off: device read %d pages, graph has %d", got, c.NumPages())
			}

			s.Cache = pagecache.New(1 << 30)
			s.QueryCache = &metrics.CacheCounters{}
			cold := runFront(t, ctx, s)
			checkImages(t, "cache cold", s, cold)
			if !bytes.Equal(cold.images[0], off.images[0]) {
				t.Error("cache-on run delivered different bytes than the cache-off run")
			}
			if got := int64(s.Cache.Len()); got != c.NumPages() {
				t.Errorf("cold run cached %d pages, want %d", got, c.NumPages())
			}

			// The warm round reopens the cold round's Front and runs on its
			// buffers, allocating none.
			owned := slices.Clone(cold.front.bufs)
			base := stats.PagesRead()
			warm := reopenFront(t, ctx, cold.front, s)
			checkImages(t, "cache warm", s, warm)
			if warm.front != cold.front || !slices.Equal(warm.front.bufs, owned) {
				t.Error("the reopened Front does not run on the buffers it owned")
			}
			checkShutdown(t, "cache warm", warm)
			if got := stats.PagesRead() - base; got != 0 {
				t.Errorf("fully cached run read %d pages from the device", got)
			}
			if qs := s.QueryCache.Snapshot(); qs.Hits != c.NumPages() || qs.Misses != c.NumPages() {
				t.Errorf("query counters: %d hits, %d misses, want %d each (one cold pass, one warm)",
					qs.Hits, qs.Misses, c.NumPages())
			}
			if _, sim := ctx.(*exec.Sim); !sim {
				settle(t, before)
			}
		})
	}
}

// TestFrontTrimsPartialRuns: on one device with 4-page runs, a cached head
// and tail are trimmed off the device request, a fully cached run reads
// nothing, and a cached page inside a run is read anyway — so the device
// reads exactly the uncached middle spans and served + device == total.
func TestFrontTrimsPartialRuns(t *testing.T) {
	c := testCSR(2)
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			ctx := be.mk()
			stats := metrics.NewIOStats(1)
			s := testSpec(memSource(ctx, "g", c, 1, stats))
			s.Cache = pagecache.New(1 << 30)
			s.QueryCache = &metrics.CacheCounters{}
			gid := s.Cache.GraphID("g")
			// run [0,4): head and tail cached → device reads pages 1-2.
			// run [4,8): all cached → no device read.
			// run [8,12): only interior page 9 cached → device reads all 4.
			warmed := []int64{0, 3, 4, 5, 6, 7, 9}
			for _, l := range warmed {
				s.Cache.Put(pagecache.Key{Graph: gid, Logical: l}, c.Adj[l*ssd.PageSize:(l+1)*ssd.PageSize])
			}
			const served = 6 // every warmed page but the interior one
			o := runFront(t, ctx, s)
			if o.err != nil {
				t.Fatal(o.err)
			}
			checkImages(t, "trimmed", s, o)
			if got, want := stats.PagesRead(), c.NumPages()-served; got != want {
				t.Errorf("device read %d pages, want exactly %d (total %d minus %d served)",
					got, want, c.NumPages(), served)
			}
			if qs := s.QueryCache.Snapshot(); qs.Hits != served || qs.Hits+stats.PagesRead() != c.NumPages() {
				t.Errorf("served %d + device %d != total %d", qs.Hits, stats.PagesRead(), c.NumPages())
			}
		})
	}
}

// TestFrontPermanentFault: a dead device fails the round with the injected
// fault in the error chain, and the shutdown still conserves buffers,
// closes both queues and leaves no goroutine behind.
func TestFrontPermanentFault(t *testing.T) {
	c := testCSR(3)
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx := be.mk()
			stats := metrics.NewIOStats(2)
			dead := fault.Policy{Seed: 7, PermanentRate: 1}.DeviceOptions()
			s := testSpec(memSource(ctx, "dead", c, 2, stats, dead))
			o := runFront(t, ctx, s)
			var fe *fault.Error
			if !errors.As(o.err, &fe) {
				t.Errorf("error chain lost the injected fault: %v", o.err)
			}
			checkShutdown(t, "dead device", o)
			if _, sim := ctx.(*exec.Sim); !sim {
				settle(t, before)
			}
		})
	}
}

// TestFrontNamesFailedSource: with a healthy base and a dead segment, the
// error names the segment — the source whose read failed — not the base.
func TestFrontNamesFailedSource(t *testing.T) {
	ctx := exec.NewSim()
	stats := metrics.NewIOStats(1)
	dead := fault.Policy{Seed: 7, PermanentRate: 1}.DeviceOptions()
	s := testSpec(
		memSource(ctx, "base", testCSR(4), 1, stats),
		memSource(ctx, "base.seg0", testCSR(5), 1, stats, dead))
	o := runFront(t, ctx, s)
	if o.err == nil || !strings.Contains(o.err.Error(), `"base.seg0"`) {
		t.Errorf("error does not name the failed segment: %v", o.err)
	}
	checkShutdown(t, "dead segment", o)
}

// TestOpenEmptyAndMismatched: a frontier that touches no page yields no
// front and no error; sources over different vertex spaces are refused.
func TestOpenEmptyAndMismatched(t *testing.T) {
	ctx := exec.NewSim()
	c := testCSR(6)
	small := graph.MustBuild(8, []uint32{0}, []uint32{1})
	ctx.Run("main", func(p exec.Proc) {
		fr, err := Open(ctx, p, frontier.NewVertexSubset(c.V), testSpec(memSource(ctx, "g", c, 1, nil)))
		if fr != nil || err != nil {
			t.Errorf("empty frontier: got front %v, err %v; want neither", fr != nil, err)
		}
		fr, err = Open(ctx, p, frontier.All(c.V), testSpec(memSource(ctx, "g", c, 1, nil), memSource(ctx, "g.seg0", small, 1, nil)))
		if fr != nil || err == nil {
			t.Errorf("mismatched segment: got front %v, err %v; want an error", fr != nil, err)
		}
	})
}

// TestFrontChecksFileBackedPages: a source without in-memory adjacency has
// every page checked as it is read. Destinations up to V-1 and garbage
// past the last edge pass; a destination of exactly V fails the round with
// an error naming the source, the page and the destination, and the
// shutdown conserves buffers and leaves no goroutine behind.
func TestFrontChecksFileBackedPages(t *testing.T) {
	c := testCSR(6)
	last := c.E - 1
	page := last / graph.EdgesPerPage
	for _, tc := range []struct {
		name    string
		corrupt func(data []byte)
		wantErr string
	}{
		{"clean", func([]byte) {}, ""},
		{"largest vertex", func(data []byte) { binary.LittleEndian.PutUint32(data[last*graph.EdgeBytes:], c.V-1) }, ""},
		{"past the last edge", func(data []byte) {
			for i := c.E * graph.EdgeBytes; i < int64(len(data)); i++ {
				data[i] = 0xff
			}
		}, ""},
		{"one past the largest vertex", func(data []byte) { binary.LittleEndian.PutUint32(data[last*graph.EdgeBytes:], c.V) },
			fmt.Sprintf("logical page %d, edge %d: destination %d", page, last, c.V)},
	} {
		for _, be := range backends {
			t.Run(tc.name+"/"+be.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				ctx := be.mk()
				data := make([]byte, c.NumPages()*ssd.PageSize)
				copy(data, c.Adj)
				tc.corrupt(data)
				index := *c
				index.Adj = nil
				s := testSpec(Source{Name: "file", CSR: &index, Arr: ssd.NewMemArray(ctx, 0, 2, ssd.OptaneSSD, data, nil, nil)})
				o := runFront(t, ctx, s)
				if tc.wantErr == "" {
					if o.err != nil {
						t.Fatalf("round failed: %v", o.err)
					}
					if !bytes.Equal(o.images[0], data) {
						t.Error("delivered pages differ from the file")
					}
				} else if o.err == nil || !strings.Contains(o.err.Error(), `"file"`) || !strings.Contains(o.err.Error(), tc.wantErr) {
					t.Errorf("error %v, want one naming %q and %q", o.err, "file", tc.wantErr)
				}
				checkShutdown(t, tc.name, o)
				if _, sim := ctx.(*exec.Sim); !sim {
					settle(t, before)
				}
			})
		}
	}
}

// TestAllBelowMatchesLaneByLane: the branchless screen agrees with a plain
// lane-by-lane compare for bounds on both sides of 2^31, lane values on
// both sides of the bound and of 2^31, and every length up to a page.
func TestAllBelowMatchesLaneByLane(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, v := range []uint32{0, 1, 2, 199_000, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1<<32 - 1} {
		near := []uint32{0, v - 1, v, v + 1, 1<<31 - 1, 1 << 31, 1<<32 - 1}
		for trial := 0; trial < 300; trial++ {
			data := make([]byte, 4*rng.Intn(ssd.PageSize/4+1))
			want := true
			for i := 0; i < len(data); i += 4 {
				x := uint32(rng.Intn(int(min(v, 1<<30)) + 1))
				if rng.Intn(64) == 0 {
					x = near[rng.Intn(len(near))]
				}
				binary.LittleEndian.PutUint32(data[i:], x)
				want = want && x < v
			}
			if got := allBelow(data, v); got != want {
				t.Fatalf("v=%d, %d lanes: allBelow = %v, want %v", v, len(data)/4, got, want)
			}
		}
	}
}
