// Package msg is the deterministic message layer for scale-out execution:
// point-to-point links between machines modeled on top of exec, so the
// same code runs under the virtual-time backend (bit-deterministic, cheap
// to test) and the real backend (paced goroutines).
//
// The model: each machine has one full-duplex NIC, split into an egress
// and an ingress exec.Resource, so sending and receiving never contend
// with each other but concurrent transfers in the same direction serialize
// at link bandwidth. A Send charges the wire bytes (header + payload) on
// the sender's egress and the receiver's ingress concurrently — the two
// ends stream in parallel, so a lone transfer pays the bytes once, while
// fan-out serializes on the sender's egress and incast on the receiver's
// ingress — then stamps the message into the receiver's inbox queue at
// completion + one propagation latency (Queue.PushAt, the same idiom as
// asynchronous device completions).
//
// Payloads are real serialized bytes. The standard wire unit is the sparse
// vertex delta — 12 bytes per updated vertex (uint32 ID + float64 value),
// the FlashGraph-style "exchange only what changed" format — built and
// parsed with AppendDelta/DecodeDeltas.
//
// Link faults follow the internal/fault taxonomy: every decision is a pure
// function of (seed, link, sequence number), so the same messages drop on
// every same-seed run. Dropped transmissions are transient — Send absorbs
// them by retransmitting, charging the wasted transfer plus a
// retransmission timeout in model time, exactly as device retries charge
// backoff. Dead links and exhausted retransmission budgets surface a
// *LinkError whose Transient method tells the caller which class it was.
// A failed Send also stamps a LinkDown notice into the destination inbox
// (the failure detector every real cluster runs — heartbeats, RST), so
// collectives counting on one message per peer never hang on a fault.
package msg

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"blaze/gen"
	"blaze/internal/exec"
)

// Type tags a message on the wire.
type Type uint8

const (
	// TypeDeltas carries sparse (vertex, value) updates — the frontier and
	// its gathered values in one payload.
	TypeDeltas Type = iota
	// TypeAbort tells peers the sender failed its local work this round and
	// will not contribute deltas; the payload is the error text.
	TypeAbort
	// TypeLinkDown is fabricated by the failure detector when a link to the
	// receiver died mid-send; From is the machine whose message was lost.
	TypeLinkDown
)

// String names the type for error text.
func (t Type) String() string {
	switch t {
	case TypeDeltas:
		return "deltas"
	case TypeAbort:
		return "abort"
	case TypeLinkDown:
		return "link-down"
	}
	return fmt.Sprintf("type%d", int(t))
}

// HeaderBytes is the modeled per-message wire overhead (type, source,
// sequence number, payload length).
const HeaderBytes = 16

// DeltaBytes is the wire size of one sparse vertex update: uint32 vertex
// ID + float64 value, little-endian.
const DeltaBytes = 12

// Message is one delivered message.
type Message struct {
	From    int
	Type    Type
	Seq     uint64
	Payload []byte
}

// WireBytes is the message's modeled size on the wire.
func (m Message) WireBytes() int64 { return HeaderBytes + int64(len(m.Payload)) }

// AppendDelta appends one (vertex, value) update in the wire format.
func AppendDelta(buf []byte, v uint32, val float64) []byte {
	var tmp [DeltaBytes]byte
	binary.LittleEndian.PutUint32(tmp[0:4], v)
	binary.LittleEndian.PutUint64(tmp[4:12], math.Float64bits(val))
	return append(buf, tmp[:]...)
}

// DeltaCount returns the number of updates encoded in payload.
func DeltaCount(payload []byte) int { return len(payload) / DeltaBytes }

// DecodeDeltas parses a TypeDeltas payload, invoking fn once per update in
// encoding order. A payload that is not a whole number of updates is a
// framing error.
func DecodeDeltas(payload []byte, fn func(v uint32, val float64)) error {
	if len(payload)%DeltaBytes != 0 {
		return fmt.Errorf("msg: delta payload length %d not a multiple of %d", len(payload), DeltaBytes)
	}
	for off := 0; off < len(payload); off += DeltaBytes {
		fn(binary.LittleEndian.Uint32(payload[off:off+4]),
			math.Float64frombits(binary.LittleEndian.Uint64(payload[off+4:off+12])))
	}
	return nil
}

// LinkKind classifies a link error, mirroring the fault package's split.
type LinkKind int

const (
	// LinkDrop marks a transient loss: the transmission vanished but the
	// link works; Send retries these internally, so a surfaced LinkDrop
	// means the retransmission budget ran out.
	LinkDrop LinkKind = iota
	// LinkDead marks a permanently failed link: every send fails.
	LinkDead
	// LinkClosed marks a send after Close.
	LinkClosed
)

// LinkError is one failed transmission.
type LinkError struct {
	From, To int
	Kind     LinkKind
}

// Error implements the error interface.
func (e *LinkError) Error() string {
	k := "dropped on"
	switch e.Kind {
	case LinkDead:
		k = "dead:"
	case LinkClosed:
		k = "closed:"
	}
	return fmt.Sprintf("msg: link %d->%d %s transmission failed", e.From, e.To, k)
}

// Transient reports whether the failure class is retryable, following the
// PR 2 error taxonomy (ssd.IsTransient / fault.Error.Transient).
func (e *LinkError) Transient() bool { return e.Kind == LinkDrop }

// LinkPolicy is the deterministic link fault model. The zero value injects
// nothing. Decisions are pure functions of (Seed, from, to, seq), so the
// same transmissions fail on every same-seed run.
type LinkPolicy struct {
	// Seed keys every decision.
	Seed uint64
	// DropRate is the fraction of transmissions lost in flight; the sender
	// times out and retransmits, charging the wasted transfer.
	DropRate float64
	// DropsPerMessage is how many consecutive transmissions of one message
	// are lost before one gets through (default 1). Set it beyond
	// MaxRetransmits to turn a drop into an unrecoverable link failure.
	DropsPerMessage int
	// DeadRate is the fraction of directed links that are dead for the
	// whole run: every send on them fails permanently.
	DeadRate float64
	// MaxRetransmits bounds retransmissions per message (default 3).
	MaxRetransmits int
}

// Enabled reports whether the policy can inject anything.
func (p LinkPolicy) Enabled() bool { return p.DropRate > 0 || p.DeadRate > 0 }

// Config parameterizes a Net.
type Config struct {
	// Machines is the endpoint count.
	Machines int
	// Bandwidth is each link direction's rate in bytes/second
	// (default 25 Gb/s).
	Bandwidth float64
	// LatencyNs is the per-message propagation latency (default 10 µs).
	LatencyNs int64
	// Fault injects link failures (zero value: none).
	Fault LinkPolicy
}

// NetStats is a snapshot of a Net's counters.
type NetStats struct {
	// Messages and Bytes count delivered traffic (wire bytes, headers
	// included).
	Messages int64
	Bytes    int64
	// Retransmits and RetransBytes count transmissions lost to injected
	// drops and paid for again.
	Retransmits  int64
	RetransBytes int64
	// LinkFailures counts sends that surfaced an error (dead links and
	// exhausted retransmission budgets).
	LinkFailures int64
}

// Net is the machine interconnect. Safe for concurrent use by all machine
// procs of the owning context.
type Net struct {
	cfg     Config
	egress  []exec.Resource
	ingress []exec.Resource
	inbox   []exec.Queue[Message]
	seq     []atomic.Uint64

	mu       sync.Mutex
	attempts map[[2]uint64]int // (link, seq) -> drops so far

	messages, bytes, retransmits, retransBytes, linkFailures atomic.Int64
}

// New builds the interconnect for cfg.Machines endpoints under ctx.
func New(ctx exec.Context, cfg Config) *Net {
	if cfg.Machines < 1 {
		cfg.Machines = 1
	}
	if cfg.Bandwidth <= 0 {
		cfg.Bandwidth = 25e9 / 8
	}
	if cfg.LatencyNs <= 0 {
		cfg.LatencyNs = 10_000
	}
	if cfg.Fault.DropsPerMessage < 1 {
		cfg.Fault.DropsPerMessage = 1
	}
	if cfg.Fault.MaxRetransmits < 1 {
		cfg.Fault.MaxRetransmits = 3
	}
	n := &Net{
		cfg:      cfg,
		egress:   make([]exec.Resource, cfg.Machines),
		ingress:  make([]exec.Resource, cfg.Machines),
		inbox:    make([]exec.Queue[Message], cfg.Machines),
		seq:      make([]atomic.Uint64, cfg.Machines),
		attempts: map[[2]uint64]int{},
	}
	for m := 0; m < cfg.Machines; m++ {
		n.egress[m] = ctx.NewResource(fmt.Sprintf("net%d-tx", m))
		n.ingress[m] = ctx.NewResource(fmt.Sprintf("net%d-rx", m))
		// Capacity 2M: at most M-1 round messages plus failure notices can
		// be in flight toward one inbox, so a full round never blocks a
		// sender on queue space (which could deadlock the all-send-then-
		// all-receive exchange under the real backend).
		cap := 2 * cfg.Machines
		if cap < 4 {
			cap = 4
		}
		n.inbox[m] = exec.NewQueue[Message](ctx, cap)
	}
	return n
}

// Machines returns the endpoint count.
func (n *Net) Machines() int { return n.cfg.Machines }

func (n *Net) transferNs(bytes int64) int64 {
	return int64(float64(bytes) / n.cfg.Bandwidth * 1e9)
}

// mix is one SplitMix64 step from state x: a cheap, well-distributed
// 64-bit hash.
func mix(x uint64) uint64 { return gen.Mix64(x + gen.Golden) }

func (n *Net) link(from, to int) uint64 {
	return uint64(from)*uint64(n.cfg.Machines) + uint64(to)
}

// roll returns a uniform [0,1) draw for (seed, link, seq, stream).
func (n *Net) roll(link, seq, stream uint64) float64 {
	h := mix(n.cfg.Fault.Seed ^ mix(link+stream<<32) ^ mix(seq))
	h = mix(h + stream)
	return float64(h>>11) / float64(1<<53)
}

// dead reports whether the directed link is permanently failed; constant
// per (seed, link) for the whole run.
func (n *Net) dead(from, to int) bool {
	return n.cfg.Fault.DeadRate > 0 && n.roll(n.link(from, to), 0, 1) < n.cfg.Fault.DeadRate
}

// dropped decides one transmission attempt of (link, seq), with the same
// heal-after-N-attempts bookkeeping as fault.Injector: a drop-marked
// message loses its first DropsPerMessage transmissions, then gets
// through and faults afresh if resent.
func (n *Net) dropped(from, to int, seq uint64) bool {
	if n.cfg.Fault.DropRate <= 0 {
		return false
	}
	link := n.link(from, to)
	if n.roll(link, seq, 2) >= n.cfg.Fault.DropRate {
		return false
	}
	key := [2]uint64{link, seq}
	n.mu.Lock()
	defer n.mu.Unlock()
	if c := n.attempts[key]; c < n.cfg.Fault.DropsPerMessage {
		n.attempts[key] = c + 1
		return true
	}
	delete(n.attempts, key)
	return false
}

// notify stamps a fabricated failure notice into to's inbox one latency
// from now — the failure detector's out-of-band signal, costing no link
// bandwidth — so a receiver counting on one message from `from` unblocks.
func (n *Net) notify(p exec.Proc, from, to int) {
	n.inbox[to].PushAt(p, Message{From: from, Type: TypeLinkDown}, p.Now()+n.cfg.LatencyNs)
}

// Send transmits payload to machine `to`, charging wire bytes and latency
// in model time, and delivers it into to's inbox. Transient drops are
// retransmitted internally; the returned error is a *LinkError for dead
// links and exhausted retransmission budgets, with a LinkDown notice
// delivered to the receiver in either case.
func (n *Net) Send(p exec.Proc, from, to int, t Type, payload []byte) error {
	if from == to || from < 0 || to < 0 || from >= n.cfg.Machines || to >= n.cfg.Machines {
		return fmt.Errorf("msg: bad endpoints %d->%d (machines %d)", from, to, n.cfg.Machines)
	}
	m := Message{From: from, Type: t, Seq: n.seq[from].Add(1), Payload: payload}
	wire := m.WireBytes()
	transfer := n.transferNs(wire)
	if n.dead(from, to) {
		// Connection refused: the sender learns after one propagation
		// latency; no bytes move.
		p.Advance(n.cfg.LatencyNs)
		n.linkFailures.Add(1)
		n.notify(p, from, to)
		return &LinkError{From: from, To: to, Kind: LinkDead}
	}
	retrans := 0
	for n.dropped(from, to, m.Seq) {
		// The transmission left the NIC and vanished: pay the transfer on
		// egress plus a retransmission timeout (one round trip) before
		// sending again.
		n.egress[from].Acquire(p, transfer)
		p.Advance(2 * n.cfg.LatencyNs)
		n.retransmits.Add(1)
		n.retransBytes.Add(wire)
		retrans++
		if retrans > n.cfg.Fault.MaxRetransmits {
			n.linkFailures.Add(1)
			n.notify(p, from, to)
			return &LinkError{From: from, To: to, Kind: LinkDrop}
		}
	}
	// Both ends stream concurrently: reserve the receiver's ingress from
	// the same instant the egress transfer starts, so a lone transfer pays
	// the bytes once while incast serializes on the ingress horizon.
	recvDone := n.ingress[to].Schedule(p, transfer)
	sendDone := n.egress[from].Acquire(p, transfer)
	arrive := recvDone
	if sendDone > arrive {
		arrive = sendDone
	}
	arrive += n.cfg.LatencyNs
	n.messages.Add(1)
	n.bytes.Add(wire)
	if !n.inbox[to].PushAt(p, m, arrive) {
		n.linkFailures.Add(1)
		return &LinkError{From: from, To: to, Kind: LinkClosed}
	}
	return nil
}

// Recv blocks until the next message for machine `to` arrives; ok is false
// once the net is closed and the inbox drained.
func (n *Net) Recv(p exec.Proc, to int) (Message, bool) {
	return n.inbox[to].Pop(p)
}

// Close rejects further sends and wakes blocked receivers.
func (n *Net) Close() {
	for _, q := range n.inbox {
		q.Close()
	}
}

// Stats snapshots the counters.
func (n *Net) Stats() NetStats {
	return NetStats{
		Messages:     n.messages.Load(),
		Bytes:        n.bytes.Load(),
		Retransmits:  n.retransmits.Load(),
		RetransBytes: n.retransBytes.Load(),
		LinkFailures: n.linkFailures.Load(),
	}
}
