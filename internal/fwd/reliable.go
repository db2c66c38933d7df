package fwd

// Reliable delivery: the robustness mode of the forwarding layer.
//
// The paper's forwarding machinery assumes perfect hardware: every packet a
// gateway relays arrives intact, so the GTM can stream packets with no
// sequencing or acknowledgement. Under the fault injector (package fault)
// that assumption breaks, and Config.Reliable replaces the streaming GTM
// with a reliable datagram protocol:
//
//   - Every message is cut into self-contained, checksummed packets:
//     fragment 0 carries the message descriptor (MTU and per-block layout),
//     fragments 1..total-1 carry the payload. Each packet names the
//     message's origin, final destination, message id and fragment index,
//     so any node can route it and the final destination can reassemble
//     and de-duplicate.
//   - Packets travel hop by hop with stop-and-wait acknowledgements,
//     exponential backoff, and a bounded retry budget per hop. A hop that
//     exhausts its budget presumes the neighbour dead and recomputes a
//     route around it (multi-gateway failover, or degradation to the slow
//     control network when Config.FallbackTopo names one).
//   - Hop acknowledgements only say a relay accepted the packet; a crash
//     can still lose accepted packets. The final destination therefore
//     returns an end-to-end acknowledgement (itself a reliably-delivered
//     packet), and the origin re-sends the whole message when it times
//     out; duplicates are suppressed at the final destination.
//   - A sender whose retries and reroutes all fail surfaces a typed
//     *DeliveryError through vtime.Abort, so the simulation ends with an
//     error instead of deadlocking.
//
// Deadlock freedom: the per-network polling daemons always Recv (which
// frees the link's eager flow-control credit) before doing anything else,
// and never block on sends — acknowledgements go through a per-node control
// daemon, relays through a per-node relay daemon, both fed by bounded
// queues with non-blocking enqueue. A full queue just means no ack, which
// the upstream retry converts into a retransmission later.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"strings"

	"madgo/internal/flight"
	"madgo/internal/flow"
	"madgo/internal/mad"
	"madgo/internal/obs"
	"madgo/internal/route"
	"madgo/internal/topo"
	"madgo/internal/vtime"
	"madgo/internal/vtime/vsync"
)

// RetryPolicy tunes the reliability protocol. Zero fields take the defaults
// of DefaultRetryPolicy.
type RetryPolicy struct {
	// AckTimeout is the initial per-hop acknowledgement timeout; it
	// doubles on every retransmission up to MaxTimeout.
	AckTimeout vtime.Duration
	// MaxTimeout caps the doubled per-hop timeout and the inter-attempt
	// backoff of whole-message resends.
	MaxTimeout vtime.Duration
	// PacketRetries is how many times one packet is retransmitted on one
	// hop before the neighbour is presumed dead.
	PacketRetries int
	// MessageRetries is how many times the whole message is re-sent after
	// an end-to-end acknowledgement timeout before the sender gives up
	// with a DeliveryError.
	MessageRetries int
	// E2EBase and E2EPerFrag size the end-to-end acknowledgement timeout:
	// E2EBase + E2EPerFrag per fragment of the message.
	E2EBase    vtime.Duration
	E2EPerFrag vtime.Duration
	// ReprobeAfter is how long a presumed-dead node stays excluded from
	// routing before it is probed again (0 = forever).
	ReprobeAfter vtime.Duration
	// RouteAttempts bounds how many alternate next hops one packet tries
	// before its forwarding fails.
	RouteAttempts int
	// Window is the per-hop ARQ window: how many packets one sender keeps
	// in flight toward one neighbour before waiting for acknowledgements.
	// The receiver coalesces the window's hop acks into one control
	// datagram (the last packet of a burst requests the flush), so larger
	// windows cut the ack traffic by their size. 1 degenerates to
	// stop-and-wait.
	Window int
}

// DefaultRetryPolicy returns the timeouts and budgets the tests and tools
// use. They are sized for the paper's testbed: the slowest hop (Fast
// Ethernet) moves a 32 KB fragment in under 3 ms, safely inside the 5 ms
// initial ack timeout. E2EBase exceeds a full dead-neighbour detection
// cycle (PacketRetries doubling timeouts, ~155 ms) so that one message
// attempt survives a downstream relay — or the returning end-to-end
// acknowledgement — having to discover a crashed gateway itself.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		AckTimeout:     5 * vtime.Millisecond,
		MaxTimeout:     80 * vtime.Millisecond,
		PacketRetries:  5,
		MessageRetries: 3,
		E2EBase:        250 * vtime.Millisecond,
		E2EPerFrag:     5 * vtime.Millisecond,
		ReprobeAfter:   500 * vtime.Millisecond,
		RouteAttempts:  3,
		Window:         8,
	}
}

// withDefaults fills zero fields from DefaultRetryPolicy.
func (rp RetryPolicy) withDefaults() RetryPolicy {
	def := DefaultRetryPolicy()
	if rp.AckTimeout <= 0 {
		rp.AckTimeout = def.AckTimeout
	}
	if rp.MaxTimeout <= 0 {
		rp.MaxTimeout = def.MaxTimeout
	}
	if rp.PacketRetries <= 0 {
		rp.PacketRetries = def.PacketRetries
	}
	if rp.MessageRetries <= 0 {
		rp.MessageRetries = def.MessageRetries
	}
	if rp.E2EBase <= 0 {
		rp.E2EBase = def.E2EBase
	}
	if rp.E2EPerFrag <= 0 {
		rp.E2EPerFrag = def.E2EPerFrag
	}
	if rp.ReprobeAfter < 0 {
		rp.ReprobeAfter = def.ReprobeAfter
	}
	if rp.RouteAttempts <= 0 {
		rp.RouteAttempts = def.RouteAttempts
	}
	if rp.Window <= 0 {
		rp.Window = def.Window
	}
	return rp
}

// DeliveryError reports that a message could not be delivered: every
// retransmission, reroute and whole-message resend failed. It reaches the
// caller of Sim.Run (and madeleine.System.Run) via vtime.Abort.
type DeliveryError struct {
	From     string
	To       string
	Reason   string // "timeout" (no end-to-end ack) or "unreachable" (no route left)
	Attempts int
	// Cause is the typed underlying failure, when one exists: an
	// "unreachable" delivery wraps *route.NoRouteError, so callers can
	// match errors.Is(err, route.ErrNoRoute) instead of parsing Reason.
	Cause error
}

func (e *DeliveryError) Error() string {
	return fmt.Sprintf("fwd: delivery %s -> %s failed after %d attempt(s): %s",
		e.From, e.To, e.Attempts, e.Reason)
}

// Unwrap exposes the typed cause to errors.Is / errors.As.
func (e *DeliveryError) Unwrap() error { return e.Cause }

// DeliveryStats aggregates the reliability protocol's counters over every
// node of the virtual channel. All zero on a fault-free run.
type DeliveryStats struct {
	Retransmits    int64 // per-hop packet retransmissions
	Failovers      int64 // neighbours presumed dead and routed around
	MessageResends int64 // whole-message resends after e2e timeouts
	Duplicates     int64 // duplicate packets suppressed at destinations
	ChecksumDrops  int64 // packets discarded for a bad checksum
	RelayDrops     int64 // packets a relay accepted but could not forward
}

// Wire format (all little-endian, CRC32-IEEE over everything before the
// trailing checksum — acknowledgements included, so a corrupted ack is
// dropped rather than misparsed):
//
//	data:  origin u32 | final u32 | msgID u64 | frag u32 | total u32 |
//	       flags u8 | nacks u8 | pad u16 | payload |
//	       nacks × ackEntry | crc u32
//	ack:   count u8 | count × ackEntry | crc u32
//	ackEntry: origin u32 | msgID u64 | frag u32
//
// Acknowledgements are batched: a receiver accumulates the hop acks of a
// sender's burst and emits them as one control datagram when the burst's
// flush-flagged last packet arrives (or the batch cap is hit). Pending
// acks also piggyback on reverse-direction data packets — the nacks
// trailer — so a bidirectional exchange needs almost no standalone ack
// datagrams at all.
//
// An end-to-end acknowledgement is a data packet with frag == e2eFrag,
// total == 0, an empty payload and final == origin — routed back to the
// message origin through the same reliable relay machinery as data.
const (
	relDataHdrLen = 28
	relTrailerLen = 4
	relOverhead   = relDataHdrLen + relTrailerLen
	relAckEntry   = 16
	// relAckBatchMax caps the entries of one batched or piggybacked ack
	// (it must fit the one-byte count fields).
	relAckBatchMax = 64
)

// relFlagFlush asks the receiver to emit its pending hop acks for this
// link immediately: set on the last packet of every burst and on every
// retransmission.
const relFlagFlush = 1 << 0

// relFlagAgg marks every fragment of an aggregate frame (package agg): the
// final destination reconstructs the frame from the reassembled fragments
// and unpacks the coalesced sub-messages instead of delivering the message
// as-is. Unlike relFlagFlush it is an end-to-end property, preserved across
// hops by sendData.
const relFlagAgg = 1 << 1

// e2eFrag is the fragment-index sentinel marking an end-to-end ack packet.
const e2eFrag = ^uint32(0)

func sealCRC(pkt []byte) {
	n := len(pkt) - relTrailerLen
	binary.LittleEndian.PutUint32(pkt[n:], crc32.ChecksumIEEE(pkt[:n]))
}

func checkCRC(pkt []byte) bool {
	if len(pkt) < relTrailerLen {
		return false
	}
	n := len(pkt) - relTrailerLen
	return binary.LittleEndian.Uint32(pkt[n:]) == crc32.ChecksumIEEE(pkt[:n])
}

// relData is a decoded data packet. acks carries the piggybacked hop
// acknowledgements that rode along in the packet's trailer.
type relData struct {
	origin  mad.Rank
	final   mad.Rank
	id      uint64
	frag    uint32
	total   uint32
	flags   uint8
	payload []byte
	acks    []relAckKey
}

// key is the packet's hop-acknowledgement identity.
func (d relData) key() relAckKey {
	return relAckKey{origin: d.origin, id: d.id, frag: d.frag}
}

func putAckEntry(b []byte, k relAckKey) {
	binary.LittleEndian.PutUint32(b[0:], uint32(k.origin))
	binary.LittleEndian.PutUint64(b[4:], k.id)
	binary.LittleEndian.PutUint32(b[12:], k.frag)
}

func getAckEntry(b []byte) relAckKey {
	return relAckKey{
		origin: mad.Rank(binary.LittleEndian.Uint32(b[0:])),
		id:     binary.LittleEndian.Uint64(b[4:]),
		frag:   binary.LittleEndian.Uint32(b[12:]),
	}
}

func encodeRelData(origin, final mad.Rank, id uint64, frag, total uint32, flags uint8, payload []byte, acks []relAckKey) []byte {
	if len(acks) > relAckBatchMax {
		panic("fwd: too many piggybacked acks")
	}
	pkt := make([]byte, relDataHdrLen+len(payload)+relAckEntry*len(acks)+relTrailerLen)
	binary.LittleEndian.PutUint32(pkt[0:], uint32(origin))
	binary.LittleEndian.PutUint32(pkt[4:], uint32(final))
	binary.LittleEndian.PutUint64(pkt[8:], id)
	binary.LittleEndian.PutUint32(pkt[16:], frag)
	binary.LittleEndian.PutUint32(pkt[20:], total)
	pkt[24] = flags
	pkt[25] = byte(len(acks))
	copy(pkt[relDataHdrLen:], payload)
	off := relDataHdrLen + len(payload)
	for _, k := range acks {
		putAckEntry(pkt[off:], k)
		off += relAckEntry
	}
	sealCRC(pkt)
	return pkt
}

func decodeRelData(pkt []byte) (relData, bool) {
	if len(pkt) < relOverhead || !checkCRC(pkt) {
		return relData{}, false
	}
	// Canonical form only: the pad bytes are zero and the piggyback count
	// is within the cap the encoder enforces.
	nacks := int(pkt[25])
	if nacks > relAckBatchMax || pkt[26] != 0 || pkt[27] != 0 {
		return relData{}, false
	}
	end := len(pkt) - relTrailerLen - relAckEntry*nacks
	if end < relDataHdrLen {
		return relData{}, false
	}
	d := relData{
		origin:  mad.Rank(binary.LittleEndian.Uint32(pkt[0:])),
		final:   mad.Rank(binary.LittleEndian.Uint32(pkt[4:])),
		id:      binary.LittleEndian.Uint64(pkt[8:]),
		frag:    binary.LittleEndian.Uint32(pkt[16:]),
		total:   binary.LittleEndian.Uint32(pkt[20:]),
		flags:   pkt[24],
		payload: pkt[relDataHdrLen:end],
	}
	for off := end; off < len(pkt)-relTrailerLen; off += relAckEntry {
		d.acks = append(d.acks, getAckEntry(pkt[off:]))
	}
	return d, true
}

func encodeRelAcks(keys []relAckKey) []byte {
	if len(keys) == 0 || len(keys) > relAckBatchMax {
		panic("fwd: ack batch size out of range")
	}
	pkt := make([]byte, 1+relAckEntry*len(keys)+relTrailerLen)
	pkt[0] = byte(len(keys))
	for i, k := range keys {
		putAckEntry(pkt[1+relAckEntry*i:], k)
	}
	sealCRC(pkt)
	return pkt
}

func decodeRelAcks(pkt []byte) ([]relAckKey, bool) {
	if len(pkt) < 1+relAckEntry+relTrailerLen || !checkCRC(pkt) {
		return nil, false
	}
	n := int(pkt[0])
	if n == 0 || n > relAckBatchMax || len(pkt) != 1+relAckEntry*n+relTrailerLen {
		return nil, false
	}
	keys := make([]relAckKey, n)
	for i := range keys {
		keys[i] = getAckEntry(pkt[1+relAckEntry*i:])
	}
	return keys, true
}

// The fragment-0 descriptor payload mirrors what the GTM transmits
// incrementally: the connection MTU and the per-block sizes and flag
// constraints the receiver's unpack calls must match.
//
//	mtu u32 | nblocks u32 | nblocks × (size u32 | sendMode u8 | recvMode u8)
func encodeRelDesc(mtu int, blocks []packedBlock) []byte {
	b := make([]byte, 8+6*len(blocks))
	binary.LittleEndian.PutUint32(b[0:], uint32(mtu))
	binary.LittleEndian.PutUint32(b[4:], uint32(len(blocks)))
	off := 8
	for _, bl := range blocks {
		binary.LittleEndian.PutUint32(b[off:], uint32(len(bl.data)))
		b[off+4] = byte(bl.s)
		b[off+5] = byte(bl.r)
		off += 6
	}
	return b
}

func decodeRelDesc(b []byte) (mtu int, desc []mad.BlockDesc, ok bool) {
	if len(b) < 8 {
		return 0, nil, false
	}
	mtu = int(binary.LittleEndian.Uint32(b[0:]))
	if mtu <= 0 {
		// A zero MTU from the wire would drive the receiver's
		// per-fragment loop with a degenerate step — reject it here,
		// like any other malformed descriptor (found by FuzzRelDesc).
		return 0, nil, false
	}
	n := int(binary.LittleEndian.Uint32(b[4:]))
	if len(b) != 8+6*n {
		return 0, nil, false
	}
	desc = make([]mad.BlockDesc, n)
	off := 8
	for i := range desc {
		desc[i] = mad.BlockDesc{
			Size: int(binary.LittleEndian.Uint32(b[off:])),
			S:    mad.SendMode(b[off+4]),
			R:    mad.RecvMode(b[off+5]),
		}
		off += 6
	}
	return mtu, desc, true
}

// relMeta is the link-layer metadata of one reliable packet: a single-block,
// single-transmission message flagged Reliable so it takes the plain eager
// path and is subject to fault injection.
func relMeta(kind mad.Kind, n int) mad.TxMeta {
	return mad.TxMeta{
		SOM:      true,
		Reliable: true,
		Kind:     kind,
		Blocks:   []mad.BlockDesc{{Size: n, S: mad.SendCheaper, R: mad.ReceiveCheaper}},
	}
}

// relAckKey identifies one packet for hop acknowledgement: who originated
// the message, which message, which fragment.
type relAckKey struct {
	origin mad.Rank
	id     uint64
	frag   uint32
}

// relMsgKey identifies one message.
type relMsgKey struct {
	origin mad.Rank
	id     uint64
}

// relAwait is a one-shot completion slot shared between a waiting sender and
// the acknowledgement handler (or the timeout callback, whichever fires
// first).
type relAwait struct {
	w    *vtime.Waker
	done bool
	ok   bool
}

// relMsg is a message being reassembled at its final destination. It is
// handed to the unpacking side through the node's merged arrival queue once
// every fragment arrived.
type relMsg struct {
	origin mad.Rank
	id     uint64
	total  uint32
	frags  map[uint32][]byte
	// agg marks a message whose payload is an aggregate frame (relFlagAgg):
	// the unpacking side decodes the frame into its coalesced sub-messages
	// instead of handing the message to the application directly.
	agg bool
}

// relayItem is one packet queued for forwarding by a node's relay daemon.
// The packet is re-encoded at the next hop (piggybacking fresh acks), so
// only the decoded form travels through the queue. from names the ingress
// neighbour ("" for locally-originated packets): split horizon never
// forwards a packet back out the way it came, which breaks the routing
// loops two nodes with inconsistent liveness views would otherwise bounce
// a packet around.
type relayItem struct {
	d    relData
	from string
	enq  vtime.Time // enqueue instant, for queue-wait attribution (0 = unknown)
}

const (
	// relRelayCap bounds each node's relay backlog (items across all
	// ingress flows); an admission past the cap is refused without an ack
	// and the upstream ARQ retransmits.
	relRelayCap = 1024
	// relDupWindow is how many completed message IDs per origin the
	// duplicate-suppression record keeps exactly; older IDs are summarised
	// by a floor. 512 spans far more concurrent in-flight messages per
	// (origin, destination) pair than the blocking send API can produce.
	relDupWindow = 512
	// relRxCap bounds a node's concurrent reassembly states; admitting a
	// new message past the cap evicts the oldest partial (its origin's
	// end-to-end timeout resends the whole message — lossy for progress,
	// never for correctness).
	relRxCap = 128
)

// relDoneWindow is the bounded per-origin duplicate-suppression record: the
// last relDupWindow completed message IDs exactly, and a floor summarising
// everything evicted. Per-origin IDs are issued monotonically and the
// blocking send API keeps few of them in flight at once, so by the time an
// ID is evicted every smaller ID from that origin has long completed —
// "at or below the floor" is then a sound duplicate verdict. This replaces
// an ever-growing done map: a long-lived node's bookkeeping stays O(origins
// × window) no matter how many messages it receives.
type relDoneWindow struct {
	set      map[uint64]struct{}
	ring     []uint64
	head     int // ring[:head] is dead space, compacted when it reaches the cap
	floor    uint64
	hasFloor bool
}

func (w *relDoneWindow) has(id uint64) bool {
	if w == nil {
		return false
	}
	if w.hasFloor && id <= w.floor {
		return true
	}
	_, ok := w.set[id]
	return ok
}

func (w *relDoneWindow) add(id uint64) {
	if _, ok := w.set[id]; ok {
		return
	}
	w.set[id] = struct{}{}
	w.ring = append(w.ring, id)
	if len(w.ring)-w.head > relDupWindow {
		old := w.ring[w.head]
		w.head++
		delete(w.set, old)
		if !w.hasFloor || old > w.floor {
			w.floor, w.hasFloor = old, true
		}
		if w.head >= relDupWindow {
			w.ring = append(w.ring[:0], w.ring[w.head:]...)
			w.head = 0
		}
	}
}

// size returns how many IDs the window tracks exactly (a test hook for the
// memory-growth regression).
func (w *relDoneWindow) size() int { return len(w.set) }

// relEngine is the per-node reliability engine: sequence numbers, awaited
// acknowledgements, reassembly state, liveness guesses and counters. All of
// it runs under the single-threaded simulation scheduler, so no locking.
type relEngine struct {
	vc   *VirtualChannel
	node *mad.Node
	pol  RetryPolicy
	rng  relRand // decorrelated-jitter state, seeded from the node name

	dead    map[route.Edge]vtime.Time // presumed-dead directed link -> reprobe time
	suspect map[string]vtime.Time     // neighbours not to relay through -> reprobe time
	tables  map[string]*route.Table   // cached per (topology, dead-set) tables
	// tablesEpoch is the health monitor's route epoch the cache was built
	// under; a publish invalidates every cached constrained table at once.
	tablesEpoch uint64
	// hp is this node's health prober (nil when no monitor is configured).
	hp *healthProber

	acks map[relAckKey]*relAwait
	e2e  map[relMsgKey]*relAwait
	rx   map[relMsgKey]*relMsg
	done map[mad.Rank]*relDoneWindow

	// pend accumulates hop acknowledgements per reverse link until a
	// flush (or the batch cap) drains them into one control datagram —
	// or a data packet headed the same way piggybacks them first.
	pend map[*mad.Link][]relAckKey
	// queued marks links already scheduled for a ctlLoop flush, so one
	// burst enqueues one flush regardless of its packet count.
	queued map[*mad.Link]bool

	relayQ *vsync.Chan[relayItem]
	ctlQ   *vsync.Chan[*mad.Link]

	// Flow-control mode replaces the FIFO relayQ with a per-ingress-flow
	// deficit-round-robin scheduler; relaySem counts its queued items.
	// Both nil when Config.FlowControl is off.
	relayDRR *flow.DRR[relayItem]
	relaySem *vsync.Sem

	retransmits   int64
	failovers     int64
	msgResends    int64
	relayedMsgs   int64
	relayedPkts   int64
	relayedBytes  int64
	dups          int64
	checksumDrops int64
	relayDrops    int64
	rxEvictions   int64 // partial reassemblies evicted at the relRxCap bound
	// flowBackpressure counts flow-mode relay admissions refused at
	// relRelayCap — lossless backpressure, the upstream ARQ retransmits.
	flowBackpressure int64
	ackPackets       int64 // standalone ack datagrams emitted
	acksCoalesced    int64 // ack entries that avoided their own datagram

	fr *flight.Ring // cached flight ring; nil until a recorder is armed
}

func (e *relEngine) sim() *vtime.Sim { return e.vc.sess.Platform.Sim }

func (e *relEngine) trace(op string, bytes int, at vtime.Time) {
	e.vc.cfg.Tracer.Record("rel:"+e.node.Name, op, bytes, at, at)
}

func (e *relEngine) metrics() *obs.Registry { return e.vc.sess.Platform.Metrics }

// flight returns this node's flight-recorder ring, resolved lazily so a
// recorder armed after Build is still picked up, then cached.
func (e *relEngine) flight() *flight.Ring {
	if e.fr == nil {
		e.fr = e.vc.flightRing(e.node.Name)
	}
	return e.fr
}

// hop appends one provenance event for message id at this node.
func (e *relEngine) hop(id uint64, at vtime.Time, op, detail string, bytes int) {
	e.metrics().RecordHop(id, at, e.node.Name, op, detail, bytes)
}

// count bumps a per-node reliability counter (pre-registered at zero by
// buildReliable so the series appear in snapshots even on clean runs).
func (e *relEngine) count(name string) {
	if m := e.metrics(); m != nil {
		m.Add(name, obs.Labels{"node": e.node.Name}, 1)
	}
}

// relCounterNames are the per-node reliability counters, pre-registered so a
// snapshot of a clean run still shows the series at zero.
var relCounterNames = []string{
	"madgo_retransmits_total",
	"madgo_failovers_total",
	"madgo_message_resends_total",
	"madgo_duplicates_total",
	"madgo_checksum_drops_total",
	"madgo_relay_drops_total",
	"madgo_rel_rx_evictions_total",
	"madgo_rel_ack_packets_total",
	"madgo_rel_acks_coalesced_total",
}

// buildReliable wires the reliable delivery machinery: one engine per node,
// one polling daemon per (node, network), and per-node relay and control
// daemons. Gateway stat objects are created for the primary topology's
// gateways so tools keep working, but no streaming pipelines start.
func (vc *VirtualChannel) buildReliable(buildTopo *topo.Topology) {
	sim := vc.sess.Platform.Sim
	pol := vc.cfg.Retry.withDefaults()
	vc.rel = make(map[string]*relEngine)
	for _, n := range buildTopo.Nodes() {
		node := vc.nodes[n.Name]
		e := &relEngine{
			vc:      vc,
			node:    node,
			pol:     pol,
			rng:     seedRelRand(n.Name),
			dead:    make(map[route.Edge]vtime.Time),
			suspect: make(map[string]vtime.Time),
			tables:  make(map[string]*route.Table),
			acks:    make(map[relAckKey]*relAwait),
			e2e:     make(map[relMsgKey]*relAwait),
			rx:      make(map[relMsgKey]*relMsg),
			done:    make(map[mad.Rank]*relDoneWindow),
			pend:    make(map[*mad.Link][]relAckKey),
			queued:  make(map[*mad.Link]bool),
			relayQ:  vsync.NewChan[relayItem]("relq:"+n.Name, relRelayCap),
			ctlQ:    vsync.NewChan[*mad.Link]("ctlq:"+n.Name, 4096),
		}
		if vc.flowc != nil {
			e.relayDRR = flow.NewDRR[relayItem](int64(vc.cfg.MTU))
			e.relaySem = vsync.NewSem(0)
			vc.metrics().Add("madgo_flow_backpressure_total", obs.Labels{"node": n.Name}, 0)
		}
		vc.rel[n.Name] = e
		for _, name := range relCounterNames {
			vc.metrics().Add(name, obs.Labels{"node": n.Name}, 0)
		}
		for _, nwName := range n.Networks {
			ep := vc.regular[nwName].At(node)
			sim.SpawnDaemon(fmt.Sprintf("relpoll:%s:%s", n.Name, nwName), func(p *vtime.Proc) {
				for {
					a := ep.WaitArrival(p)
					e.handle(p, a)
				}
			})
		}
		sim.SpawnDaemon("relfwd:"+n.Name, func(p *vtime.Proc) { e.relayLoop(p) })
		sim.SpawnDaemon("relctl:"+n.Name, func(p *vtime.Proc) { e.ctlLoop(p) })
	}
	vc.buildHealth()
	for _, name := range vc.tp.Gateways() {
		g := newGateway(vc, vc.nodes[name])
		g.eng = vc.rel[name]
		vc.gates[name] = g
	}
}

// sendMessage fragments, encodes and reliably delivers one message under its
// pack-time ID, blocking until the final destination's end-to-end
// acknowledgement arrives. It runs in the application's process (called from
// EndPacking).
func (e *relEngine) sendMessage(p *vtime.Proc, dst string, blocks []packedBlock, id uint64) {
	e.sendMessageFlags(p, dst, blocks, id, 0)
}

// sendMessageFlags is sendMessage with end-to-end packet flags (the
// aggregate marker) stamped on every fragment.
func (e *relEngine) sendMessageFlags(p *vtime.Proc, dst string, blocks []packedBlock, id uint64, msgFlags uint8) {
	pol := e.pol
	// Per-path MTU: fragment at the most constrained network of the
	// primary route. The descriptor carries the chosen size, so the
	// receiver reassembles correctly even if failover later moves packets
	// onto a different path. A message striped over several rails
	// fragments at the most constrained rail, so every rail can carry
	// every packet.
	mtu := e.vc.PathMTU(e.node.Name, dst)
	totalBytes := int64(0)
	for _, b := range blocks {
		totalBytes += int64(len(b.data))
	}
	rails := e.vc.stripeRoutes(e.node.Name, dst)
	striped := len(rails) >= 2 && totalBytes >= e.vc.cfg.stripeThreshold()
	if striped {
		for _, r := range rails {
			if m := e.vc.railMTU(r); m < mtu {
				mtu = m
			}
		}
	}

	payloads := [][]byte{encodeRelDesc(mtu, blocks)}
	for _, b := range blocks {
		data := b.data
		mad.ForEachFragment(len(data), mtu, func(off, n int) {
			payloads = append(payloads, data[off:off+n])
		})
	}
	total := uint32(len(payloads))
	final := e.vc.NodeRank(dst)
	ds := make([]relData, total)
	for i, pl := range payloads {
		ds[i] = relData{origin: e.node.Rank, final: final, id: id,
			frag: uint32(i), total: total, flags: msgFlags, payload: pl}
	}

	mkey := relMsgKey{origin: e.node.Rank, id: id}
	reason := "timeout"
	bo := pol.AckTimeout
	for attempt := 0; attempt <= pol.MessageRetries; attempt++ {
		if attempt > 0 {
			e.msgResends++
			e.trace("resend", 0, p.Now())
			e.count("madgo_message_resends_total")
			e.hop(id, p.Now(), "resend", fmt.Sprintf("attempt %d -> %s", attempt+1, dst), 0)
		}
		aw := &relAwait{}
		e.e2e[mkey] = aw
		var routed bool
		if striped {
			routed = e.sendStriped(p, dst, ds, rails, aw)
		} else {
			routed = e.sendBatched(p, dst, ds, aw)
		}
		if !routed {
			if e.e2e[mkey] == aw {
				delete(e.e2e, mkey)
			}
			reason = "unreachable"
			if attempt < pol.MessageRetries {
				bo = e.nextTimeout(bo)
				p.Sleep(bo)
				e.flight().Record(flight.KindBackoff, p.Now(), bo, id, 0, "")
			}
			continue
		}
		to := pol.E2EBase + vtime.Duration(total)*pol.E2EPerFrag
		t0 := p.Now()
		ok := e.await(p, aw, to, "rel e2e "+dst)
		if e.e2e[mkey] == aw {
			delete(e.e2e, mkey)
		}
		if ok {
			e.flight().Record(flight.KindAckWait, p.Now(), vtime.Since(p.Now(), t0), id, 0, "")
			return
		}
		// A timed-out end-to-end wait feeds the message-resend machinery,
		// so it is charged to the retransmit stage, not ack-wait.
		e.flight().Record(flight.KindRexmit, p.Now(), vtime.Since(p.Now(), t0), id, 0, "")
		reason = "timeout"
	}
	var cause error
	if reason == "unreachable" {
		cause = &route.NoRouteError{Src: e.node.Name, Dst: dst,
			Why: "every route exhausted or excluded by liveness constraints"}
	}
	// The run is about to abort: snapshot every flight ring so the state
	// at the moment of failure survives into the post-mortem.
	e.vc.flight().Dump(fmt.Sprintf("delivery-error: %s %s -> %s (msg %d)", reason, e.node.Name, dst, id))
	panic(vtime.Abort{Err: &DeliveryError{
		From:     e.node.Name,
		To:       dst,
		Reason:   reason,
		Attempts: pol.MessageRetries + 1,
		Cause:    cause,
	}})
}

// relRand is a tiny splitmix64 generator, one per engine. Seeded from the
// node name alone, it is deterministic across runs and independent of the
// fault injector's stream, so reliability timing never perturbs fault
// placement (or vice versa).
type relRand struct{ s uint64 }

func seedRelRand(name string) relRand {
	// FNV-1a over the name, then a golden-ratio displacement so even
	// single-letter names land far apart in the state space.
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return relRand{s: h ^ 0x9e3779b97f4a7c15}
}

func (r *relRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *relRand) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// nextTimeout grows a retry timeout with decorrelated jitter: uniform in
// [AckTimeout, 3·prev), capped at MaxTimeout. Compared to the synchronized
// doubling it replaces, independent senders recovering from the same fault
// window spread their retransmissions instead of colliding in lockstep.
func (e *relEngine) nextTimeout(prev vtime.Duration) vtime.Duration {
	base := e.pol.AckTimeout
	if prev < base {
		prev = base
	}
	hi := 3 * prev
	if hi <= base {
		hi = base + 1
	}
	d := base + vtime.Duration(e.rng.float()*float64(hi-base))
	if d > e.pol.MaxTimeout {
		d = e.pol.MaxTimeout
	}
	if d < base {
		d = base
	}
	return d
}

// sendBatched pushes one full copy of a message toward dst in windows of
// Window packets, stopping early when the end-to-end slot completes (the
// ack of a previous attempt arrived). It reports false when routing failed.
func (e *relEngine) sendBatched(p *vtime.Proc, dst string, ds []relData, aw *relAwait) bool {
	w := e.pol.Window
	for i := 0; i < len(ds) && !aw.done; i += w {
		n := min(w, len(ds)-i)
		if !e.forwardBatch(p, dst, ds[i:i+n]) {
			return false
		}
	}
	return true
}

// forwardBatch moves a batch of packets one step toward finalDst, trying
// alternate next hops (failover) when the preferred neighbour stops
// acknowledging; only the packets the dead neighbour never acknowledged are
// rerouted. A failed burst kills the *directed link* it used, never the
// neighbour node: a multi-homed neighbour stays reachable over its other
// links and a partitioned next hop can still be detoured around — both
// fatal to conflate with node death when the neighbour is the final
// destination of a direct route. A genuinely crashed node converges to
// unreachable as each neighbour buries its own links to it. It reports
// false when no route is left or every alternate hop failed.
func (e *relEngine) forwardBatch(p *vtime.Proc, finalDst string, ds []relData) bool {
	return e.forwardBatchExcluding(p, finalDst, "", ds)
}

// forwardBatchExcluding is forwardBatch under split horizon: routes
// relaying through exclude (the ingress neighbour) are off the table.
func (e *relEngine) forwardBatchExcluding(p *vtime.Proc, finalDst, exclude string, ds []relData) bool {
	for try := 0; try < e.pol.RouteAttempts; try++ {
		hop, ok := e.nextHop(finalDst, exclude, p.Now())
		if !ok {
			return false
		}
		failed := e.deliverBurst(p, hop, ds)
		if len(failed) == 0 {
			return true
		}
		ds = failed
		e.markDead(hop, p.Now())
		e.hop(ds[0].id, p.Now(), "failover",
			fmt.Sprintf("link to %s via %s presumed dead", hop.To, hop.Network), 0)
	}
	return false
}

// deliverBurst transmits a burst of packets to one neighbour under the ARQ
// window discipline: every packet goes out back to back, the last one
// flush-flagged so the receiver returns the burst's hop acks as one control
// datagram; packets still unacknowledged after their timeout are
// retransmitted stop-and-wait with doubling timeouts. It returns the
// packets whose retry budget ran out (the neighbour is then presumed dead
// by the caller) — once one packet exhausts its budget, the rest are not
// retried, only checked for acks that already arrived.
func (e *relEngine) deliverBurst(p *vtime.Proc, hop route.Hop, ds []relData) (failed []relData) {
	mon := e.vc.mon
	edge := route.Edge{From: e.node.Name, To: hop.To, Network: hop.Network}
	if mon != nil {
		// Sender activity doubles as the heartbeat clock: edges this node
		// has not exercised recently get an active probe.
		mon.Heartbeats(e.node.Name, p.Now())
	}
	link := e.vc.regular[hop.Network].Link(e.node.Rank, e.vc.NodeRank(hop.To))
	aws := make([]*relAwait, len(ds))
	sentAt := make([]vtime.Time, len(ds))
	for i := range ds {
		aws[i] = &relAwait{}
		e.acks[ds[i].key()] = aws[i]
		sentAt[i] = p.Now()
		e.sendData(p, link, ds[i], i == len(ds)-1)
		e.dataHop(ds[i], p.Now(), "hop", hop)
	}
	hopDead := false
	for i := range ds {
		key := ds[i].key()
		aw := aws[i]
		ok := false
		if hopDead {
			// The neighbour already blew a retry budget this burst;
			// don't burn more simulated time, just harvest acks that
			// raced in.
			ok = aw.done && aw.ok
		} else {
			to := e.pol.AckTimeout
			ok = e.await(p, aw, to, "rel ack "+hop.To)
			if !ok {
				e.flight().Record(flight.KindRexmit, p.Now(), to, ds[i].id, len(ds[i].payload), hop.Network)
			}
			for try := 1; !ok && try <= e.pol.PacketRetries; try++ {
				if mon != nil {
					mon.ReportFailure(edge, p.Now())
					if mon.Excluded(edge) {
						// Someone (our own earlier packet, another
						// sender, the detector's score) already declared
						// this edge dead and published a new epoch.
						// Abandon the rest of the budget and let the
						// caller migrate the burst to the new tables.
						break
					}
				}
				e.retransmits++
				e.trace("rexmit", len(ds[i].payload), p.Now())
				e.count("madgo_retransmits_total")
				e.dataHop(ds[i], p.Now(), "rexmit", hop)
				aw = &relAwait{}
				e.acks[key] = aw
				sentAt[i] = p.Now()
				e.sendData(p, link, ds[i], true)
				to = e.nextTimeout(to)
				ok = e.await(p, aw, to, "rel ack "+hop.To)
				if !ok {
					e.flight().Record(flight.KindRexmit, p.Now(), to, ds[i].id, len(ds[i].payload), hop.Network)
				}
			}
			if !ok {
				hopDead = true
			}
		}
		if e.acks[key] == aw {
			delete(e.acks, key)
		}
		if mon != nil {
			if ok {
				mon.ReportSuccess(edge, p.Now().Sub(sentAt[i]), p.Now())
			} else {
				mon.ReportFailure(edge, p.Now())
			}
		}
		if !ok {
			failed = append(failed, ds[i])
		}
	}
	return failed
}

// dataHop records packet d crossing hop; the detail string is built only
// when a metrics registry is armed.
func (e *relEngine) dataHop(d relData, at vtime.Time, op string, hop route.Hop) {
	m := e.metrics()
	if m == nil {
		return
	}
	var detail string
	if d.frag == e2eFrag {
		detail = fmt.Sprintf("e2e-ack -> %s via %s", hop.To, hop.Network)
	} else {
		detail = fmt.Sprintf("frag %d -> %s via %s", d.frag, hop.To, hop.Network)
	}
	m.RecordHop(d.id, at, e.node.Name, op, detail, len(d.payload))
}

// sendData encodes and transmits one packet over one link, piggybacking
// whatever hop acknowledgements are pending for that link. Encoding happens
// here, at transmission time, so retransmissions carry fresh piggybacked
// acks too.
func (e *relEngine) sendData(p *vtime.Proc, link *mad.Link, d relData, flush bool) {
	kind := mad.KindRel
	if d.frag == e2eFrag {
		kind = mad.KindRelE2E
		flush = true
	}
	// Flush is a per-hop property recomputed at every transmission; the
	// remaining flags (the aggregate marker) are end-to-end and ride along
	// unchanged.
	flags := d.flags &^ relFlagFlush
	if flush {
		flags |= relFlagFlush
	}
	acks := e.takePiggyback(link)
	pkt := encodeRelData(d.origin, d.final, d.id, d.frag, d.total, flags, d.payload, acks)
	link.Acquire(p)
	t0 := p.Now()
	link.Send(p, relMeta(kind, len(pkt)), pkt)
	e.flight().Record(flight.KindSend, p.Now(), vtime.Since(p.Now(), t0), d.id, len(d.payload), link.Channel.Network().Name)
	link.Release(p)
}

// takePiggyback drains (up to the batch cap) the pending hop acks headed
// where a data packet is about to go; each one saves a standalone control
// datagram.
func (e *relEngine) takePiggyback(link *mad.Link) []relAckKey {
	pend := e.pend[link]
	if len(pend) == 0 {
		return nil
	}
	n := min(len(pend), relAckBatchMax)
	acks := append([]relAckKey(nil), pend[:n]...)
	e.pend[link] = pend[n:]
	e.acksCoalesced += int64(n)
	if m := e.metrics(); m != nil {
		m.Add("madgo_rel_acks_coalesced_total", obs.Labels{"node": e.node.Name}, float64(n))
	}
	return acks
}

// await blocks until the slot completes or the timeout fires, whichever
// comes first, and reports success. The slot may already be complete (an
// acknowledgement that raced the sender), in which case it returns without
// parking.
func (e *relEngine) await(p *vtime.Proc, aw *relAwait, to vtime.Duration, what string) bool {
	if !aw.done {
		aw.w = p.Blocker(what)
		e.sim().AfterArg(to, expireAwait, aw, 0)
		aw.w.Wait()
	}
	return aw.ok
}

// expireAwait fails the *relAwait passed as a when its timeout fires,
// unless it completed first.
func expireAwait(a any, _ uint64) {
	aw := a.(*relAwait)
	if aw.done {
		return
	}
	aw.done = true
	aw.ok = false
	aw.w.Wake()
}

// complete fulfils an awaited slot from handler context (never parks).
func complete(aw *relAwait) {
	if aw != nil && !aw.done {
		aw.done = true
		aw.ok = true
		if aw.w != nil {
			aw.w.Wake()
		}
	}
}

// nextHop picks the first leg toward dst, preferring the primary topology
// (the high-speed networks) and falling back to Config.FallbackTopo (the
// full configuration including the control network) when the primary has no
// live path. Presumed-dead links and suspect relays are routed around, and
// a non-empty exclude (split horizon: the ingress neighbour of a relayed
// packet) is barred as an intermediate hop; tables are cached per
// (topology, constraint-set) pair.
func (e *relEngine) nextHop(dst, exclude string, now vtime.Time) (route.Hop, bool) {
	if e.vc.mon != nil {
		return e.nextHopHealth(dst, exclude)
	}
	c, tag := e.currentDead(now)
	if exclude != "" && exclude != dst {
		if c.Relays == nil {
			c.Relays = make(map[string]bool, 1)
		}
		c.Relays[exclude] = true
		tag += "|x:" + exclude
	}
	me := e.node.Name
	for i, t := range [...]*topo.Topology{e.vc.tp, e.vc.cfg.FallbackTopo} {
		if t == nil {
			continue
		}
		if _, ok := t.Node(me); !ok {
			continue
		}
		if _, ok := t.Node(dst); !ok {
			continue
		}
		key := fmt.Sprintf("%d|%s", i, tag)
		tbl := e.tables[key]
		if tbl == nil {
			tbl = route.ComputeConstrained(t, c)
			e.tables[key] = tbl
		}
		if r, ok := tbl.Lookup(me, dst); ok && len(r) > 0 {
			return r[0], true
		}
	}
	return route.Hop{}, false
}

// nextHopHealth is nextHop when the link-health monitor owns liveness: the
// monitor's epoch-stamped tables are shared by every node, so all senders
// converge on the same routes the instant a transition publishes a new
// epoch. Only split-horizon exclusions need per-engine tables — the epoch
// constraints merged with the barred ingress neighbour — and those are
// cached per (topology, exclude) and invalidated wholesale on epoch change.
func (e *relEngine) nextHopHealth(dst, exclude string) (route.Hop, bool) {
	mon := e.vc.mon
	me := e.node.Name
	if ep := mon.Epoch(); ep != e.tablesEpoch {
		e.tables = make(map[string]*route.Table)
		e.tablesEpoch = ep
	}
	if exclude == "" || exclude == dst {
		for _, tbl := range mon.Tables() {
			if r, ok := tbl.Lookup(me, dst); ok && len(r) > 0 {
				return r[0], true
			}
		}
		return route.Hop{}, false
	}
	var c route.Constraints // built on the first cache miss only
	for i, t := range [...]*topo.Topology{e.vc.tp, e.vc.cfg.FallbackTopo} {
		if t == nil {
			continue
		}
		prefix := "h0|x:"
		if i == 1 {
			prefix = "h1|x:"
		}
		tbl := e.tables[prefix+exclude]
		if tbl == nil {
			if c.Relays == nil {
				base := mon.Constraints()
				c = route.Constraints{Nodes: base.Nodes, Edges: base.Edges}
				c.Relays = make(map[string]bool, len(base.Relays)+1)
				for k, v := range base.Relays {
					c.Relays[k] = v
				}
				c.Relays[exclude] = true
			}
			tbl = route.ComputeConstrained(t, c)
			e.tables[prefix+exclude] = tbl
		}
		if r, ok := tbl.Lookup(me, dst); ok && len(r) > 0 {
			return r[0], true
		}
	}
	return route.Hop{}, false
}

// currentDead prunes expired liveness guesses and returns the live routing
// constraints plus a canonical cache tag for them.
func (e *relEngine) currentDead(now vtime.Time) (route.Constraints, string) {
	var names []string
	var c route.Constraints
	for edge, exp := range e.dead {
		if exp <= now {
			delete(e.dead, edge)
			continue
		}
		if c.Edges == nil {
			c.Edges = make(map[route.Edge]bool)
		}
		c.Edges[edge] = true
		names = append(names, edge.String())
	}
	for n, exp := range e.suspect {
		if exp <= now {
			delete(e.suspect, n)
			continue
		}
		if c.Relays == nil {
			c.Relays = make(map[string]bool)
		}
		c.Relays[n] = true
		names = append(names, "!"+n)
	}
	if len(names) == 0 {
		return route.Constraints{}, ""
	}
	sort.Strings(names)
	return c, strings.Join(names, ",")
}

// markDead records a failover: the neighbour stopped acknowledging on one
// link. The directed link is excluded from routing, and the neighbour is
// excluded as a *relay* — the evidence cannot distinguish a crashed node
// from one downed network, so nothing further is routed through it, but it
// stays a legal destination over its other links. Both expire after
// ReprobeAfter.
func (e *relEngine) markDead(hop route.Hop, now vtime.Time) {
	e.failovers++
	e.trace("failover", 0, now)
	e.count("madgo_failovers_total")
	if mon := e.vc.mon; mon != nil {
		// Exhausted retry budget is hard evidence: the monitor owns the
		// state machine, the epoch bump, and the probation schedule that
		// will eventually re-admit the link.
		mon.ReportDead(route.Edge{From: e.node.Name, To: hop.To, Network: hop.Network}, now)
		return
	}
	exp := vtime.Time(math.MaxInt64)
	if e.pol.ReprobeAfter > 0 {
		exp = now.Add(e.pol.ReprobeAfter)
	}
	e.dead[route.Edge{From: e.node.Name, To: hop.To, Network: hop.Network}] = exp
	e.suspect[hop.To] = exp
}

// handle dispatches one arrival in the polling daemon. The Recv comes
// first, unconditionally: it frees the link's flow-control credit before
// any further work, which is what keeps the ack/credit graph acyclic.
func (e *relEngine) handle(p *vtime.Proc, a *mad.Arrival) {
	meta, slot := a.Link.Recv(p)
	switch meta.Kind {
	case mad.KindRel, mad.KindRelE2E:
		e.handleData(p, a.Link, slot)
	case mad.KindRelAck:
		e.handleAck(slot)
	case mad.KindHealth:
		e.handleHealth(p, a.Link, slot)
	default:
		panic("fwd: unexpected " + meta.Kind.String() + " message in reliable mode on " + e.node.Name)
	}
}

// handleData verifies, acknowledges and routes one data or end-to-end-ack
// packet. It never parks: relays and acknowledgements are enqueued to the
// node's daemons with non-blocking sends.
func (e *relEngine) handleData(p *vtime.Proc, in *mad.Link, pkt []byte) {
	d, ok := decodeRelData(pkt)
	if !ok {
		e.checksumDrops++
		e.trace("corrupt-drop", len(pkt), p.Now())
		e.count("madgo_checksum_drops_total")
		return // no ack: the sender retransmits
	}
	// Piggybacked hop acks ride in the data trailer; settle them first so
	// a blocked sender wakes even if this packet is otherwise a duplicate.
	for _, k := range d.acks {
		complete(e.acks[k])
	}
	if d.final != e.node.Rank {
		ingress := e.vc.sess.Node(in.Src.Rank).Name
		finalName := e.vc.sess.Node(d.final).Name
		// Custody refusal: accepting (acking) a packet we can only route
		// back where it came from would either loop it or strand it here.
		// Without the ack the upstream retransmits, buries this link and
		// reroutes — local knowledge propagates exactly as far as needed.
		if _, ok := e.nextHop(finalName, ingress, p.Now()); !ok {
			e.relayDrops++
			e.count("madgo_relay_drops_total")
			e.hop(d.id, p.Now(), "refuse",
				fmt.Sprintf("no route to %s except back via %s", finalName, ingress), 0)
			return
		}
		if !e.enqueueRelay(relayItem{d: d, from: ingress, enq: p.Now()}) {
			return // backpressure: no ack until the queue drains
		}
		e.hopAck(in, d)
		return
	}
	if d.frag == e2eFrag {
		e.hopAck(in, d)
		if aw := e.e2e[relMsgKey{origin: d.origin, id: d.id}]; aw != nil {
			e.trace("e2e", 0, p.Now())
			e.hop(d.id, p.Now(), "e2e", "end-to-end ack received", 0)
			complete(aw)
		}
		return
	}
	e.acceptLocal(p, in, d)
}

// acceptLocal stores one fragment at its final destination, suppressing
// duplicates, and completes the message when the last fragment lands.
func (e *relEngine) acceptLocal(p *vtime.Proc, in *mad.Link, d relData) {
	e.hopAck(in, d)
	mkey := relMsgKey{origin: d.origin, id: d.id}
	if e.done[d.origin].has(d.id) {
		// The whole message already arrived; the origin is resending
		// because our end-to-end ack got lost. Re-ack.
		e.dups++
		e.trace("dup", len(d.payload), p.Now())
		e.count("madgo_duplicates_total")
		e.hop(d.id, p.Now(), "dup", fmt.Sprintf("frag %d after completion, re-acked", d.frag), len(d.payload))
		e.sendE2E(d.origin, d.id)
		return
	}
	m := e.rx[mkey]
	if m == nil {
		if len(e.rx) >= relRxCap {
			e.evictOldestRx(p)
		}
		m = &relMsg{origin: d.origin, id: d.id, total: d.total, frags: make(map[uint32][]byte),
			agg: d.flags&relFlagAgg != 0}
		e.rx[mkey] = m
	}
	if _, have := m.frags[d.frag]; have {
		e.dups++
		e.trace("dup", len(d.payload), p.Now())
		e.count("madgo_duplicates_total")
		e.hop(d.id, p.Now(), "dup", fmt.Sprintf("frag %d suppressed", d.frag), len(d.payload))
		return
	}
	m.frags[d.frag] = d.payload
	if uint32(len(m.frags)) == m.total {
		e.markDone(d.origin, d.id)
		// The reassembled message now travels by reference through the
		// merged queue; dropping the rx entry is what keeps a long-lived
		// node's reassembly table from growing one record per message.
		delete(e.rx, mkey)
		if !e.vc.merged[e.node.Rank].TrySend(incoming{rel: m}) {
			panic("fwd: merged arrival queue overflow on " + e.node.Name)
		}
		payload := 0
		for f, b := range m.frags {
			if f != 0 {
				payload += len(b)
			}
		}
		if e.metrics() != nil {
			e.hop(d.id, p.Now(), "deliver",
				fmt.Sprintf("reassembled at %s (%d fragments)", e.node.Name, m.total), payload)
		}
		e.sendE2E(d.origin, d.id)
	}
}

// markDone records a completed message in the origin's bounded
// duplicate-suppression window.
func (e *relEngine) markDone(origin mad.Rank, id uint64) {
	w := e.done[origin]
	if w == nil {
		w = &relDoneWindow{set: make(map[uint64]struct{})}
		e.done[origin] = w
	}
	w.add(id)
}

// evictOldestRx drops the reassembly state with the smallest (origin, id) —
// the stalest partial under monotone per-origin IDs. Its origin's
// end-to-end timeout resends the whole message, so eviction costs
// retransmitted bytes, never delivery.
func (e *relEngine) evictOldestRx(p *vtime.Proc) {
	var victim relMsgKey
	found := false
	for k := range e.rx {
		if !found || k.id < victim.id || (k.id == victim.id && k.origin < victim.origin) {
			victim, found = k, true
		}
	}
	if !found {
		return
	}
	delete(e.rx, victim)
	e.rxEvictions++
	e.count("madgo_rel_rx_evictions_total")
	e.hop(victim.id, p.Now(), "evict",
		fmt.Sprintf("partial reassembly evicted at cap %d", relRxCap), 0)
}

// hopAck records the hop acknowledgement of one packet against its reverse
// link. The entry sits in the link's pending batch until the sender's flush
// flag (the last packet of its burst) — or the batch cap — schedules a
// control-daemon drain; a data packet headed the same way may piggyback it
// first. A full control queue silently drops the flush — the sender's
// retransmission (always flush-flagged) absorbs it.
func (e *relEngine) hopAck(in *mad.Link, d relData) {
	back := in.Channel.Link(e.node.Rank, in.Src.Rank)
	e.pend[back] = append(e.pend[back], d.key())
	if d.flags&relFlagFlush == 0 && len(e.pend[back]) < relAckBatchMax {
		return
	}
	if e.queued[back] {
		return
	}
	if e.ctlQ.TrySend(back) {
		e.queued[back] = true
	}
}

// sendE2E queues the end-to-end acknowledgement of a fully-received message
// for reliable delivery back to its origin.
func (e *relEngine) sendE2E(origin mad.Rank, id uint64) {
	it := relayItem{
		d:   relData{origin: origin, final: origin, id: id, frag: e2eFrag},
		enq: e.sim().Now(),
	}
	e.enqueueRelay(it) // a refused ack is absorbed by the origin's resend
}

// enqueueRelay admits one packet to the relay daemon: the per-ingress-flow
// DRR queues in flow-control mode, the FIFO queue otherwise. A refusal
// (backlog at capacity) means no hop ack, which the upstream ARQ converts
// into a retransmission — backpressure, not loss. The callers count a
// refusal as a relay drop in FIFO mode; in flow mode it is counted here as
// backpressure instead.
func (e *relEngine) enqueueRelay(it relayItem) bool {
	if e.relayDRR == nil {
		if !e.relayQ.TrySend(it) {
			e.relayDrops++
			e.count("madgo_relay_drops_total")
			return false
		}
		return true
	}
	if e.relayDRR.Len() >= relRelayCap {
		e.flowBackpressure++
		e.metrics().Add("madgo_flow_backpressure_total", obs.Labels{"node": e.node.Name}, 1)
		return false
	}
	e.relayDRR.Push(it.from, it)
	e.relaySem.Release(1)
	return true
}

// relayRounds returns how many full DRR passes the fair relay daemon
// completed (0 in FIFO mode).
func (e *relEngine) relayRounds() int64 {
	if e.relayDRR == nil {
		return 0
	}
	return e.relayDRR.Rounds()
}

// handleAck completes the awaited slots of one batched acknowledgement.
func (e *relEngine) handleAck(pkt []byte) {
	keys, ok := decodeRelAcks(pkt)
	if !ok {
		e.checksumDrops++
		return
	}
	for _, key := range keys {
		complete(e.acks[key])
	}
}

// relayLoop is the per-node relay daemon: it reliably forwards queued
// packets (data passing through this node, and end-to-end acks this node
// originates or relays). Backlogged packets bound for the same final
// destination move as one windowed burst, so a relay preserves the
// upstream sender's ack coalescing instead of re-expanding the stream into
// stop-and-wait.
func (e *relEngine) relayLoop(p *vtime.Proc) {
	if e.relayDRR != nil {
		e.relayLoopFair(p)
		return
	}
	for {
		it, ok := e.relayQ.Recv(p)
		if !ok {
			return
		}
		qwait := func(item relayItem) {
			if item.enq > 0 {
				e.flight().Record(flight.KindQueueWait, p.Now(), p.Now().Sub(item.enq),
					item.d.id, len(item.d.payload), "")
			}
		}
		qwait(it)
		batch := []relData{it.d}
		var requeue []relayItem
		for len(batch) < e.pol.Window {
			more, ok := e.relayQ.TryRecv()
			if !ok {
				break
			}
			if more.d.final == it.d.final && more.from == it.from {
				qwait(more)
				batch = append(batch, more.d)
			} else {
				requeue = append(requeue, more)
			}
		}
		for _, r := range requeue {
			if !e.relayQ.TrySend(r) {
				e.relayDrops++
				e.count("madgo_relay_drops_total")
			}
		}
		finalName := e.vc.sess.Node(it.d.final).Name
		if e.forwardBatchExcluding(p, finalName, it.from, batch) {
			for _, d := range batch {
				if d.frag != e2eFrag {
					e.relayedPkts++
					e.relayedBytes += int64(len(d.payload))
					if d.frag == 0 {
						e.relayedMsgs++
					}
				}
			}
		} else {
			e.relayDrops++
			e.count("madgo_relay_drops_total")
		}
	}
}

// relayLoopFair is the flow-control relay daemon: packets are served in
// deficit-round-robin order over ingress flows instead of FIFO, each flow
// charged the payload bytes it relayed, so a backlogged elephant sender
// repays its debt over following rounds while mouse flows keep being
// served — long-run relay bandwidth equalizes across contending ingress
// neighbours. Same-flow packets to the same final destination still move
// as one windowed burst, preserving ack coalescing.
func (e *relEngine) relayLoopFair(p *vtime.Proc) {
	qwait := func(item relayItem) {
		if item.enq > 0 {
			e.flight().Record(flight.KindQueueWait, p.Now(), p.Now().Sub(item.enq),
				item.d.id, len(item.d.payload), "")
		}
	}
	for {
		e.relaySem.Acquire(p, 1)
		key, it, ok := e.relayDRR.Pop()
		if !ok {
			panic("fwd: relay scheduler woken with empty queues on " + e.node.Name)
		}
		qwait(it)
		batch := []relData{it.d}
		cost := int64(len(it.d.payload))
		for len(batch) < e.pol.Window {
			more, ok := e.relayDRR.PopFrom(key, func(m relayItem) bool { return m.d.final == it.d.final })
			if !ok {
				break
			}
			if !e.relaySem.TryAcquire(1) {
				panic("fwd: relay scheduler permit ledger out of balance on " + e.node.Name)
			}
			qwait(more)
			batch = append(batch, more.d)
			cost += int64(len(more.d.payload))
		}
		finalName := e.vc.sess.Node(it.d.final).Name
		if e.forwardBatchExcluding(p, finalName, key, batch) {
			for _, d := range batch {
				if d.frag != e2eFrag {
					e.relayedPkts++
					e.relayedBytes += int64(len(d.payload))
					if d.frag == 0 {
						e.relayedMsgs++
					}
				}
			}
		} else {
			e.relayDrops++
			e.count("madgo_relay_drops_total")
		}
		e.relayDRR.Charge(key, cost)
	}
}

// ctlLoop is the per-node control daemon: it drains each scheduled link's
// pending hop acks into one batched acknowledgement datagram. Its sends may
// block on link credits, but never on another daemon, so the polling
// daemons stay free to drain mailboxes. A link whose batch was already
// emptied by piggybacking is skipped.
func (e *relEngine) ctlLoop(p *vtime.Proc) {
	for {
		link, ok := e.ctlQ.Recv(p)
		if !ok {
			return
		}
		delete(e.queued, link)
		// Re-read the pending batch before every datagram: the link.Send
		// below parks, and the polling daemon may append new entries
		// meanwhile.
		for len(e.pend[link]) > 0 {
			pend := e.pend[link]
			n := min(len(pend), relAckBatchMax)
			pkt := encodeRelAcks(pend[:n])
			e.pend[link] = pend[n:]
			e.ackPackets++
			e.count("madgo_rel_ack_packets_total")
			if n > 1 {
				e.acksCoalesced += int64(n - 1)
				e.metrics().Add("madgo_rel_acks_coalesced_total",
					obs.Labels{"node": e.node.Name}, float64(n-1))
			}
			link.Acquire(p)
			link.Send(p, relMeta(mad.KindRelAck, len(pkt)), pkt)
			link.Release(p)
		}
	}
}

// RelBookkeeping is the size of the reliable mode's per-message bookkeeping,
// summed over every node — a hook for the memory-growth regression tests:
// both figures must stay bounded no matter how many messages a run delivers.
type RelBookkeeping struct {
	// DoneIDs is how many completed message IDs the duplicate-suppression
	// windows track exactly (bounded by relDupWindow per origin).
	DoneIDs int
	// RxPartials is how many in-progress reassemblies exist (bounded by
	// relRxCap per node; 0 on a quiesced run).
	RxPartials int
	// RxEvictions is how many partial reassemblies were evicted at the cap.
	RxEvictions int64
}

// RelBookkeeping sums the reliable mode's bookkeeping sizes over every node.
// Zero-valued in streaming mode.
func (vc *VirtualChannel) RelBookkeeping() RelBookkeeping {
	var s RelBookkeeping
	for _, name := range vc.relOrder {
		e := vc.rel[name]
		for _, w := range e.done {
			s.DoneIDs += w.size()
		}
		s.RxPartials += len(e.rx)
		s.RxEvictions += e.rxEvictions
	}
	return s
}

// AckStats aggregates the acknowledgement-traffic counters over every node.
// Unlike DeliveryStats these are non-zero on clean runs: they count control
// datagrams, not failures.
type AckStats struct {
	// Packets is how many standalone acknowledgement datagrams were sent.
	Packets int64
	// Coalesced is how many individual hop acknowledgements avoided their
	// own datagram — by riding in a batch (n-1 of a batch of n) or by
	// piggybacking on a reverse-direction data packet (all n).
	Coalesced int64
}

// AckStats sums the acknowledgement-traffic counters over every node.
// Zero-valued in streaming (non-reliable) mode.
func (vc *VirtualChannel) AckStats() AckStats {
	var s AckStats
	for _, name := range vc.relOrder {
		e := vc.rel[name]
		s.Packets += e.ackPackets
		s.Coalesced += e.acksCoalesced
	}
	return s
}

// DeliveryStats sums the reliability counters over every node, in node
// declaration order. Zero-valued in streaming (non-reliable) mode.
func (vc *VirtualChannel) DeliveryStats() DeliveryStats {
	var s DeliveryStats
	for _, name := range vc.relOrder {
		e := vc.rel[name]
		s.Retransmits += e.retransmits
		s.Failovers += e.failovers
		s.MessageResends += e.msgResends
		s.Duplicates += e.dups
		s.ChecksumDrops += e.checksumDrops
		s.RelayDrops += e.relayDrops
	}
	return s
}

// relPacking is the sender side of a reliable message: blocks are buffered
// (SendSafer pays its snapshot copy immediately, the others are referenced —
// safe because EndPacking blocks until the message is end-to-end
// acknowledged) and the whole message is fragmented and sent at EndPacking.
type relPacking struct {
	eng    *relEngine
	dst    string
	id     uint64
	blocks []packedBlock
}

func newRelPacking(eng *relEngine, dst string) *relPacking {
	return &relPacking{eng: eng, dst: dst, id: eng.vc.nextMsgID()}
}

func (rp *relPacking) pack(p *vtime.Proc, data []byte, s mad.SendMode, r mad.RecvMode) {
	t0 := p.Now()
	rp.blocks = bufferBlock(p, rp.eng.node.Host, rp.blocks, data, s, r)
	rp.eng.flight().Record(flight.KindPack, p.Now(), vtime.Since(p.Now(), t0), rp.id, len(data), "")
}

func (rp *relPacking) end(p *vtime.Proc) {
	rp.eng.sendMessage(p, rp.dst, rp.blocks, rp.id)
}

// relUnpacking is the receiver side: the message is already fully
// reassembled (that is what the arrival means), so unpack calls verify the
// mirrored flags against the descriptor and copy fragments out.
type relUnpacking struct {
	eng      *relEngine
	m        *relMsg
	mtu      int
	desc     []mad.BlockDesc
	nextBlk  int
	nextFrag uint32
}

func newRelUnpacking(eng *relEngine, m *relMsg) *relUnpacking {
	mtu, desc, ok := decodeRelDesc(m.frags[0])
	if !ok {
		panic("fwd: reliable message with malformed descriptor on " + eng.node.Name)
	}
	return &relUnpacking{eng: eng, m: m, mtu: mtu, desc: desc, nextFrag: 1}
}

func (ru *relUnpacking) unpack(p *vtime.Proc, dst []byte, s mad.SendMode, r mad.RecvMode) {
	if ru.nextBlk >= len(ru.desc) {
		panic("fwd: unpack past the end of a reliable message")
	}
	d := ru.desc[ru.nextBlk]
	ru.nextBlk++
	if d.S != s || d.R != r || d.Size != len(dst) {
		panic(fmt.Sprintf("fwd: protocol error: packed %v, unpacked {%dB %v %v}", d, len(dst), s, r))
	}
	host := ru.eng.node.Host
	p.Sleep(host.CPU.PackCost)
	mad.ForEachFragment(len(dst), ru.mtu, func(off, n int) {
		frag, ok := ru.m.frags[ru.nextFrag]
		ru.nextFrag++
		if !ok || len(frag) != n {
			panic("fwd: reliable message fragment size mismatch")
		}
		if n > 0 {
			host.Memcpy(p, n)
			copy(dst[off:off+n], frag)
		}
	})
}

func (ru *relUnpacking) end(p *vtime.Proc) {
	if ru.nextBlk != len(ru.desc) || ru.nextFrag != ru.m.total {
		panic(fmt.Sprintf("fwd: reliable message not fully unpacked (%d/%d blocks, %d/%d fragments)",
			ru.nextBlk, len(ru.desc), ru.nextFrag, ru.m.total))
	}
	delete(ru.eng.rx, relMsgKey{origin: ru.m.origin, id: ru.m.id})
}
