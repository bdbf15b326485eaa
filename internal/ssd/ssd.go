// Package ssd models the storage devices the paper evaluates on: NAND SSDs
// with a large sequential/random gap and Fast NVMe Drives (FNDs, e.g. Intel
// Optane SSD) with symmetric high bandwidth (Table I).
//
// A Device couples a Backing (where the page data actually lives — memory
// or a file) with an exec.Resource that charges transfer time, so the same
// device works under wall-clock pacing and under deterministic virtual
// time. Data movement is always real; only its duration is modeled.
//
// The cost of a read request of n contiguous 4 kB pages is
//
//	firstPage/randRate + (n-1)*page/seqRate
//
// unless the request begins exactly where the previous one on that device
// ended, in which case the whole request is charged at the sequential rate.
// This reproduces both the NAND asymmetry and the FND symmetry with one
// parameterization. Latency is folded into bandwidth, as with the deep
// asynchronous IO queues all systems in the paper use.
package ssd

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"blaze/internal/exec"
	"blaze/internal/metrics"
	"blaze/internal/trace"
)

// PageSize is the device page size used throughout Blaze (4 kB).
const PageSize = 4096

// IsTransient reports whether err is marked transient — i.e. whether some
// error in its chain implements `Transient() bool` returning true (injected
// faults from internal/fault do). Transient read errors are retried by the
// device's RetryPolicy; everything else is surfaced immediately.
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// LatencyInjector is implemented by backings (e.g. fault injectors) that
// add modeled latency to the reads they serve — a slow-device spike. The
// extra time is charged to the device alongside the transfer cost, so it is
// deterministic under virtual time and paced under wall time.
type LatencyInjector interface {
	// ExtraLatencyNs returns additional model-time nanoseconds for a read
	// of n pages starting at local page start.
	ExtraLatencyNs(start int64, n int) int64
}

// RetryPolicy bounds how a Device retries transient read errors. The
// backoff between attempts is charged as device busy time in model
// nanoseconds — deterministic under the virtual-time backend and paced
// under the real one — and doubles per retry. With no faults injected the
// retry path never executes, so figures are unchanged.
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts of one page after its first
	// failed read; a transient error that persists past the budget becomes
	// permanent.
	MaxRetries int
	// BackoffNs is the device busy time charged before the first retry;
	// each subsequent retry doubles it.
	BackoffNs int64
}

// DefaultRetryPolicy mirrors common NVMe-driver behaviour: a few quick
// retries with exponential backoff.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 3, BackoffNs: 100_000}
}

// Profile describes one storage device's read bandwidth envelope.
type Profile struct {
	Name string
	// SeqBytesPerSec is the 4 kB sequential read bandwidth.
	SeqBytesPerSec float64
	// RandBytesPerSec is the 4 kB random read bandwidth.
	RandBytesPerSec float64
}

// Device profiles from Table I of the paper. The NAND sequential rate is
// derived from the paper's statements that random reads reach 34% of
// sequential bandwidth and that Optane is 6.6x faster sequentially.
var (
	NANDSSD   = Profile{"Intel NAND SSD DC S3520 (2016)", 386e6, 132e6}
	OptaneSSD = Profile{"Intel Optane SSD DC P4800X (2017)", 2550e6, 2360e6}
	ZNAND     = Profile{"Samsung Z-NAND SZ983 (2018)", 3400e6, 3072e6}
	VNAND     = Profile{"Samsung 980 Pro (2020)", 3500e6, 2827e6}
)

// Profiles lists the Table I devices in paper order.
func Profiles() []Profile { return []Profile{NANDSSD, OptaneSSD, ZNAND, VNAND} }

// Scale returns a copy of the profile with both rates multiplied by f,
// for scaled-down experiments.
func (pr Profile) Scale(f float64) Profile {
	return Profile{
		Name:            fmt.Sprintf("%s x%.3g", pr.Name, f),
		SeqBytesPerSec:  pr.SeqBytesPerSec * f,
		RandBytesPerSec: pr.RandBytesPerSec * f,
	}
}

// Backing supplies page data for one device.
type Backing interface {
	// ReadLocalPage copies local page number local into buf (PageSize
	// bytes). Reads past the end of the data zero-fill.
	ReadLocalPage(local int64, buf []byte) error
	// LocalPages returns the number of local pages this backing holds.
	LocalPages() int64
}

// Device is one modeled SSD.
type Device struct {
	ID      int
	prof    Profile
	res     exec.Resource
	backing Backing
	lat     LatencyInjector // non-nil when the backing injects latency
	retry   RetryPolicy
	stats   *metrics.IOStats
	tl      *metrics.TimelineShard // this device's contention-free shard

	mu      sync.Mutex // guards lastEnd: devices are shared across procs
	lastEnd int64      // local page just past the previous request, for seq detection
}

// NewDevice returns a device backed by b under ctx's clock. stats and tl
// may be nil.
func NewDevice(ctx exec.Context, id int, prof Profile, b Backing, stats *metrics.IOStats, tl *metrics.Timeline) *Device {
	d := &Device{
		ID:      id,
		prof:    prof,
		res:     ctx.NewResource(fmt.Sprintf("ssd%d", id)),
		backing: b,
		retry:   DefaultRetryPolicy(),
		stats:   stats,
		lastEnd: -1,
	}
	if li, ok := b.(LatencyInjector); ok {
		d.lat = li
	}
	if tl != nil {
		d.tl = tl.Shard(id)
	}
	return d
}

// Profile returns the device's bandwidth profile.
func (d *Device) Profile() Profile { return d.prof }

// transferNs returns the modeled duration of reading n pages starting at
// local page start, and updates sequential-detection state. The state
// update runs under the device lock: devices are shared by every proc that
// touches the same stripe, and an unsynchronized read-modify-write of
// lastEnd is a data race under the real backend.
func (d *Device) transferNs(start int64, n int) int64 {
	d.mu.Lock()
	seqStart := start == d.lastEnd
	d.lastEnd = start + int64(n)
	d.mu.Unlock()
	var ns float64
	if seqStart {
		ns = float64(n) * PageSize * 1e9 / d.prof.SeqBytesPerSec
	} else {
		ns = PageSize * 1e9 / d.prof.RandBytesPerSec
		if n > 1 {
			ns += float64(n-1) * PageSize * 1e9 / d.prof.SeqBytesPerSec
		}
	}
	t := int64(ns)
	if d.lat != nil {
		t += d.lat.ExtraLatencyNs(start, n)
	}
	return t
}

// copyPages moves the data; it is identical under both clocks.
func (d *Device) copyPages(start int64, n int, buf []byte) (int, error) {
	for i := 0; i < n; i++ {
		if err := d.backing.ReadLocalPage(start+int64(i), buf[i*PageSize:(i+1)*PageSize]); err != nil {
			return i, fmt.Errorf("ssd%d: page %d: %w", d.ID, start+int64(i), err)
		}
	}
	return n, nil
}

// account records the completed request in stats and timeline.
func (d *Device) account(at int64, n int) {
	bytes := int64(n) * PageSize
	if d.stats != nil {
		d.stats.AddRead(d.ID, bytes, n)
	}
	if d.tl != nil {
		d.tl.Add(at, bytes)
	}
}

// copyPagesRetry is copyPages under the device's retry policy: a transient
// error is retried from the page that failed, with exponential backoff
// charged as device busy time, so the stall is visible under both clocks.
// The budget and the backoff start afresh at each page: a run of several
// faulty pages is read as long as no one page fails more than MaxRetries
// times in a row. Permanent errors (and transient ones that exhaust the
// budget) are recorded in stats and surfaced to the caller.
func (d *Device) copyPagesRetry(p exec.Proc, start int64, n int, buf []byte) error {
	backoff := d.retry.BackoffNs
	for attempt, done := 0, 0; ; attempt++ {
		k, err := d.copyPages(start+int64(done), n-done, buf[done*PageSize:])
		if err == nil {
			return nil
		}
		if k > 0 {
			done += k
			attempt, backoff = 0, d.retry.BackoffNs
		}
		if !IsTransient(err) || attempt >= d.retry.MaxRetries {
			if d.stats != nil {
				d.stats.AddReadError(d.ID)
			}
			return err
		}
		if d.stats != nil {
			d.stats.AddRetry(d.ID)
		}
		trace.RingOf(p).Instant(trace.OpDevRetry, int32(d.ID), p.Now(), int64(attempt+1))
		d.res.Acquire(p, backoff)
		backoff *= 2
	}
}

// ReadPages synchronously reads n contiguous local pages starting at start
// into buf, blocking p until the modeled completion. Transient backing
// errors are retried per the device's RetryPolicy before an error is
// returned.
func (d *Device) ReadPages(p exec.Proc, start int64, n int, buf []byte) error {
	if err := d.copyPagesRetry(p, start, n, buf); err != nil {
		return err
	}
	tr := trace.RingOf(p)
	var submit int64
	if tr.Active() {
		submit = p.Now()
	}
	done := d.res.Acquire(p, d.transferNs(start, n))
	d.account(done, n)
	tr.Span(trace.OpDevRead, int32(d.ID), submit, done, int64(n))
	return nil
}

// ScheduleRead asynchronously reads n contiguous local pages starting at
// start into buf and returns the modeled completion time without blocking
// p (AIO semantics). The caller must not consume buf before the returned
// instant; hand it to Queue.PushAt. Transient backing errors are retried
// per the device's RetryPolicy (the retry backoff blocks p, as a resubmit
// would) before an error is returned.
func (d *Device) ScheduleRead(p exec.Proc, start int64, n int, buf []byte) (int64, error) {
	if err := d.copyPagesRetry(p, start, n, buf); err != nil {
		return 0, err
	}
	tr := trace.RingOf(p)
	var submit int64
	if tr.Active() {
		submit = p.Now()
	}
	done := d.res.Schedule(p, d.transferNs(start, n))
	d.account(done, n)
	// The span runs submit → modeled completion: under Perfetto the gap
	// between spans on one device lane is exactly the idle time the paper's
	// Figure 2 argues about.
	tr.Span(trace.OpDevRead, int32(d.ID), submit, done, int64(n))
	return done, nil
}

// CopyPending moves n contiguous local pages starting at start into buf
// without charging transfer time or device read accounting: the data path
// of a request that coalesced onto another consumer's in-flight read of
// the same run. The device is already busy serving that read, so the
// attach costs no extra device time; only retry backoff for transient
// backing faults (which re-fault independently per consumer) blocks p.
func (d *Device) CopyPending(p exec.Proc, start int64, n int, buf []byte) error {
	return d.copyPagesRetry(p, start, n, buf)
}

// BusyUntil exposes the device horizon for utilization accounting.
func (d *Device) BusyUntil() int64 { return d.res.BusyUntil() }

// Array is a RAID-0 page-interleaved set of devices: logical page i lives
// on device i%D at local page i/D (§IV-E of the paper).
type Array struct {
	devs         []*Device
	logicalPages int64
}

// NewArray stripes a logical page space of logicalPages pages over devs.
func NewArray(devs []*Device, logicalPages int64) *Array {
	return &Array{devs: devs, logicalPages: logicalPages}
}

// NumDevices returns the device count.
func (a *Array) NumDevices() int { return len(a.devs) }

// Device returns device i.
func (a *Array) Device(i int) *Device { return a.devs[i] }

// LogicalPages returns the logical page count.
func (a *Array) LogicalPages() int64 { return a.logicalPages }

// Map translates a logical page to (device, local page).
func (a *Array) Map(logical int64) (dev int, local int64) {
	d := int(logical % int64(len(a.devs)))
	return d, logical / int64(len(a.devs))
}

// Logical translates (device, local page) back to the logical page.
func (a *Array) Logical(dev int, local int64) int64 {
	return local*int64(len(a.devs)) + int64(dev)
}

// MaxReadBandwidth returns the aggregate 4 kB random-read bandwidth — the
// paper's red line.
func (a *Array) MaxReadBandwidth() float64 {
	var t float64
	for _, d := range a.devs {
		t += d.prof.RandBytesPerSec
	}
	return t
}

// MemBacking is an in-memory Backing over a byte slice holding local pages.
type MemBacking struct{ Data []byte }

// ReadLocalPage implements Backing.
func (m *MemBacking) ReadLocalPage(local int64, buf []byte) error {
	off := local * PageSize
	if off >= int64(len(m.Data)) {
		for i := range buf {
			buf[i] = 0
		}
		return nil
	}
	n := copy(buf, m.Data[off:])
	for i := n; i < len(buf); i++ {
		buf[i] = 0
	}
	return nil
}

// LocalPages implements Backing.
func (m *MemBacking) LocalPages() int64 {
	return (int64(len(m.Data)) + PageSize - 1) / PageSize
}

// StripeView exposes device dev's shard of a logically contiguous ReaderAt
// striped over numDev devices, so one adjacency file (or byte slice) can
// serve a whole array without materializing shards.
type StripeView struct {
	Src     io.ReaderAt
	SrcSize int64
	Dev     int
	NumDev  int
}

// ReadLocalPage implements Backing.
func (v *StripeView) ReadLocalPage(local int64, buf []byte) error {
	logical := local*int64(v.NumDev) + int64(v.Dev)
	off := logical * PageSize
	if off >= v.SrcSize {
		for i := range buf {
			buf[i] = 0
		}
		return nil
	}
	want := int64(len(buf))
	if off+want > v.SrcSize {
		want = v.SrcSize - off
	}
	n, err := v.Src.ReadAt(buf[:want], off)
	if err != nil && err != io.EOF {
		return err
	}
	for i := n; i < len(buf); i++ {
		buf[i] = 0
	}
	return nil
}

// LocalPages implements Backing.
func (v *StripeView) LocalPages() int64 {
	logicalPages := (v.SrcSize + PageSize - 1) / PageSize
	n := logicalPages / int64(v.NumDev)
	if logicalPages%int64(v.NumDev) > int64(v.Dev) {
		n++
	}
	return n
}

// DeviceOptions adjusts device construction in NewMemArray and the
// engine's graph constructors. The zero value is the default behaviour.
type DeviceOptions struct {
	// WrapBacking, when non-nil, wraps every device's backing before the
	// device is built — the fault-injection hook (see internal/fault).
	WrapBacking func(dev int, b Backing) Backing
	// Retry overrides the default transient-error retry policy.
	Retry *RetryPolicy
}

// MergeDeviceOptions folds a variadic option slice into one value; later
// entries override earlier ones field-by-field.
func MergeDeviceOptions(opts []DeviceOptions) DeviceOptions {
	var o DeviceOptions
	for _, x := range opts {
		if x.WrapBacking != nil {
			o.WrapBacking = x.WrapBacking
		}
		if x.Retry != nil {
			o.Retry = x.Retry
		}
	}
	return o
}

// Build constructs one device honoring o: the backing is wrapped first (so
// injected latency and faults are visible to the device) and the retry
// policy applied.
func (o DeviceOptions) Build(ctx exec.Context, id int, prof Profile, b Backing, stats *metrics.IOStats, tl *metrics.Timeline) *Device {
	if o.WrapBacking != nil {
		b = o.WrapBacking(id, b)
	}
	d := NewDevice(ctx, id, prof, b, stats, tl)
	if o.Retry != nil {
		d.retry = *o.Retry
	}
	return d
}

// NewMemArray builds an array of n devices with profile prof striped over
// data, wiring stats and timeline (either may be nil) into every device.
// The devices take the IDs first … first+n-1 — in stats, in the timeline
// and in the device options' WrapBacking — so several arrays (one per
// machine of a cluster) can share one IOStats without colliding; the
// stripe index within the array still runs 0 … n-1.
func NewMemArray(ctx exec.Context, first, n int, prof Profile, data []byte, stats *metrics.IOStats, tl *metrics.Timeline, opts ...DeviceOptions) *Array {
	o := MergeDeviceOptions(opts)
	devs := make([]*Device, n)
	for i := 0; i < n; i++ {
		var b Backing
		if n == 1 {
			b = &MemBacking{Data: data}
		} else {
			b = &StripeView{Src: sliceReaderAt(data), SrcSize: int64(len(data)), Dev: i, NumDev: n}
		}
		devs[i] = o.Build(ctx, first+i, prof, b, stats, tl)
	}
	pages := (int64(len(data)) + PageSize - 1) / PageSize
	return NewArray(devs, pages)
}

// sliceReaderAt serves a byte slice to StripeView under the io.ReaderAt
// contract: a read ending at or past the end returns io.EOF with however
// many bytes were available.
type sliceReaderAt []byte

func (s sliceReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("ssd: negative read offset %d", off)
	}
	if off >= int64(len(s)) {
		return 0, io.EOF
	}
	n := copy(p, s[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}
