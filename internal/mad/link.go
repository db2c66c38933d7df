package mad

import (
	"fmt"

	"madgo/internal/fault"
	"madgo/internal/flight"
	"madgo/internal/fluid"
	"madgo/internal/hw"
	"madgo/internal/obs"
	"madgo/internal/vtime"
	"madgo/internal/vtime/vsync"
)

// Framing costs charged on the wire for every transmission: a fixed header
// plus a small descriptor per block.
const (
	txHeaderBytes  = 8
	blockDescBytes = 4
)

// BlockDesc describes one packed block inside a transmission: its size and
// the flag pair it was packed with. The receiving BMM verifies its mirrored
// expectations against these descriptors, turning pack/unpack mismatches
// into immediate errors instead of silent corruption.
type BlockDesc struct {
	Size int
	S    SendMode
	R    RecvMode
}

// TxMeta is the metadata of one transmission.
type TxMeta struct {
	// SOM marks the first transmission of a message; its delivery is
	// what BeginUnpacking waits for.
	SOM bool
	// Announce marks a header-only transmission sent ahead of a
	// referenced first block on an eager link, so the receiver can post
	// its destination before the payload streams in (rendezvous links
	// announce implicitly through their request).
	Announce bool
	// EOM marks a payload-free end-of-message terminator. The generic
	// transmission module closes every self-described message with one —
	// "to end a message, the sender sends the description of an empty
	// message" (§2.3).
	EOM bool
	// Kind is the message class, transmitted ahead of the body so the
	// receiver can pick the regular or generic decoding path.
	Kind Kind
	// Blocks describes the payload layout.
	Blocks []BlockDesc
	// Seq is the per-link sequence number (diagnostics; links are FIFO
	// by construction).
	Seq uint64
	// Reliable marks a transmission of the fwd reliability protocol: it
	// always takes the plain eager path (no rendezvous or post gating,
	// which would wedge a sender when the counterpart is lost) and it is
	// the only traffic the fault injector may drop, corrupt or stall —
	// unprotected traffic keeps the seed's exact behaviour.
	Reliable bool
}

func (m TxMeta) payloadBytes() int {
	n := 0
	for _, b := range m.Blocks {
		n += b.Size
	}
	return n
}

// wireBytes is the number of bytes the transmission occupies on the wire.
func (m TxMeta) wireBytes() int {
	return m.payloadBytes() + txHeaderBytes + blockDescBytes*len(m.Blocks)
}

// transmission is one in-flight unit on a link.
type transmission struct {
	link    *Link
	meta    TxMeta
	payload []byte // sender-side reference
	slot    []byte // receiver-side driver memory (eager or ungranted data)

	rendezvous bool
	dataReady  bool
	credited   bool         // eager flow-control credit already returned
	announced  bool         // SOM arrival already notified (post-gated path)
	senderW    *vtime.Waker // rendezvous: sender waits for the grant
	recvW      *vtime.Waker // rendezvous: receiver waits for completion
	granted    *postedRecv

	// Fault verdicts, decided at send time so the injected randomness is
	// consumed in deterministic scheduler order. corruptAt < 0 means no
	// corruption.
	dropped   bool
	corruptAt int
}

// postedRecv is an outstanding posted receive on a link. dst == nil means
// the receiver wants a driver-slot handoff instead of in-place delivery.
type postedRecv struct {
	dst    []byte
	w      *vtime.Waker
	tx     *transmission
	placed bool // payload went straight into dst with no CPU copy
}

// Link is one unidirectional point-to-point connection of a channel. The
// engine implements the two delivery disciplines every modelled protocol
// uses:
//
//   - eager: the sender streams immediately; data lands in driver memory
//     unless a receive was already posted, in which case the NIC places it
//     directly (zero copy).
//   - rendezvous (large messages on Myrinet/BIP): the sender announces the
//     message and waits for the receiver, then streams straight into the
//     posted destination.
type Link struct {
	Channel *Channel
	Src     *Node
	Dst     *Node

	drv     Driver
	nic     hw.NICParams
	wire    *fluid.Resource
	mailbox *vsync.Chan[*transmission]
	posted  *postedRecv
	gated   []*vtime.Waker // senders waiting for a posted receive
	credits *vsync.Sem     // eager flow-control window (nil = unlimited)
	msgMu   vsync.Mutex    // serializes whole messages on the sending side
	recvMu  vsync.Mutex    // serializes whole messages on the receiving side
	seq     uint64
	flRing  *flight.Ring // cached flight ring; nil until a recorder is armed

	// Built once by newLink so a transmission builds neither: the fluid
	// route sender bus → wire → receiver bus, and the flow's name and
	// the reason its blocked sender gives in deadlock reports.
	route    []fluid.Hop
	flowName string
	flowWait string
}

func newLink(ch *Channel, src, dst *Node) *Link {
	nic := ch.drv.NIC()
	wire := ch.net.Wire(src.Name, dst.Name)
	name := fmt.Sprintf("%s:%s->%s", ch.Name, src.Name, dst.Name)
	l := &Link{
		Channel: ch,
		Src:     src,
		Dst:     dst,
		drv:     ch.drv,
		nic:     nic,
		wire:    wire,
		mailbox: vsync.NewChan[*transmission]("mbox:"+name, 4096),
		route: []fluid.Hop{
			{R: src.Host.Bus, Class: nic.SendBusClass},
			{R: wire, Class: fluid.ClassWire},
			{R: dst.Host.Bus, Class: nic.RecvBusClass},
		},
		flowName: name,
		flowWait: "flow " + name,
	}
	if nic.EagerCredits > 0 {
		l.credits = vsync.NewSem(nic.EagerCredits)
	}
	return l
}

func (l *Link) sim() *vtime.Sim       { return l.Src.Session.Platform.Sim }
func (l *Link) engine() *fluid.Engine { return l.Src.Session.Platform.Engine }

// Acquire locks the link for one whole message; Release unlocks it.
// Packing and the generic transmission module bracket their messages with
// these so transmissions of different messages never interleave on a link.
func (l *Link) Acquire(p *vtime.Proc) { l.msgMu.Lock(p) }

// Release unlocks the link after a message.
func (l *Link) Release(p *vtime.Proc) { l.msgMu.Unlock(p) }

// AcquireRecv locks the receiving side of the link for one whole message;
// ReleaseRecv unlocks it. Unpacking brackets messages with these so two
// receiver processes on one node cannot interleave receives of consecutive
// messages from the same sender.
func (l *Link) AcquireRecv(p *vtime.Proc) { l.recvMu.Lock(p) }

// ReleaseRecv unlocks the receiving side after a message.
func (l *Link) ReleaseRecv(p *vtime.Proc) { l.recvMu.Unlock(p) }

// faults returns the platform's armed fault injector (nil when fault
// injection is off).
func (l *Link) faults() *fault.Injector { return l.Src.Session.Platform.Faults }

// metrics returns the platform's metrics registry (nil records nothing).
func (l *Link) metrics() *obs.Registry { return l.Src.Session.Platform.Metrics }

// flight returns the source node's flight-recorder ring, looked up lazily
// so a recorder armed after the link was built is still picked up; once
// resolved the ring is cached (nil rings record nothing either way).
func (l *Link) flight() *flight.Ring {
	if l.flRing == nil {
		l.flRing = l.Src.Session.Platform.FlightRing(l.Src.Name)
	}
	return l.flRing
}

// flow charges the transfer over sender bus → wire → receiver bus. It
// reports false when a fault window cancelled the flow mid-transfer.
func (l *Link) flow(p *vtime.Proc, wireBytes, payloadLen int) bool {
	demand := l.nic.EffectiveSendRate(payloadLen)
	if l.nic.RecvEngineRate < demand {
		demand = l.nic.RecvEngineRate
	}
	_, ok := l.engine().TransferOK(p, fluid.Spec{
		Name:   l.flowName,
		Class:  l.nic.SendBusClass,
		Demand: demand,
		Bytes:  int64(wireBytes),
		Route:  l.route,
		Wait:   l.flowWait,
	})
	return ok
}

// Send transmits data as one transmission. It blocks until the sending NIC
// has pushed the last byte (and, on the rendezvous path, until the receiver
// had posted). The data slice is referenced, not copied; the BMM layer has
// already made any copies its policy requires.
func (l *Link) Send(p *vtime.Proc, meta TxMeta, data []byte) {
	m := l.metrics()
	var labels obs.Labels
	if m != nil {
		labels = obs.Labels{"net": l.Channel.net.Name, "node": l.Src.Name}
		m.Add("madgo_link_sends_total", labels, 1)
		m.Add("madgo_link_send_bytes_total", labels, float64(len(data)))
	}
	t0 := p.Now()
	l.send(p, meta, data)
	if m != nil {
		m.ObserveDuration("madgo_link_send_seconds", labels, vtime.Since(p.Now(), t0))
	}
	l.flight().Record(flight.KindWire, p.Now(), vtime.Since(p.Now(), t0), 0, len(data), l.Channel.net.Name)
}

// send is the uninstrumented transmission path behind Send.
func (l *Link) send(p *vtime.Proc, meta TxMeta, data []byte) {
	if got := meta.payloadBytes(); got != len(data) {
		panic(fmt.Sprintf("mad: block descriptors say %d bytes, payload has %d", got, len(data)))
	}
	l.seq++
	meta.Seq = l.seq
	tx := &transmission{link: l, meta: meta, payload: data, corruptAt: -1}

	if meta.Reliable {
		if inj := l.faults(); inj != nil {
			if d := inj.StallDelay(l.Src.Name, p.Now()); d > 0 {
				p.Sleep(d)
			}
		}
	}
	p.Sleep(l.nic.SendOverhead)
	l.drv.OnSend(p, l.Src.Host, len(data))
	l.judge(p, tx)

	if !meta.Reliable && l.nic.RendezvousThreshold > 0 && len(data) > l.nic.RendezvousThreshold {
		l.sendRendezvous(p, tx)
		return
	}
	if !meta.Reliable && l.nic.PostGateThreshold > 0 && len(data) > l.nic.PostGateThreshold {
		// Post-gated eager path: large payloads stream straight into a
		// buffer the receiver has exposed; the sender waits (cheaply)
		// until one is there. The message is announced first so the
		// receiver knows to post.
		tx.credited = true // gating replaces the ring credit
		if tx.meta.SOM && !tx.meta.Announce {
			l.notifyArrival(tx)
			tx.announced = true
		}
		if l.posted == nil {
			w := p.Blocker(l.Channel.gateWait)
			l.gated = append(l.gated, w)
			w.Wait()
		}
		l.flow(p, tx.meta.wireBytes(), len(data))
		l.sim().AfterArg(l.nic.WireLatency, deliverTx, tx, 0)
		return
	}
	// Ring eager path: take a flow-control credit (a free ring slot on
	// the receiving side), stream, deliver after the wire latency. The
	// credit returns when the transmission reaches the receiver's hands.
	if l.credits != nil {
		l.credits.Acquire(p, 1)
	}
	ok := l.flow(p, tx.meta.wireBytes(), len(data))
	if tx.meta.Reliable && (tx.dropped || !ok) {
		// The packet never reaches the receiver: a drop verdict, or a
		// fault window cancelled the flow mid-transfer. The credit is
		// returned (the slot was never consumed on the far side) and
		// the sender's retry machinery takes over.
		l.releaseCredit(tx)
		return
	}
	l.sim().AfterArg(l.nic.WireLatency, deliverTx, tx, 0)
}

// judge draws the fault verdicts for a reliable transmission at send time,
// so the injector's randomness is consumed in deterministic scheduler order
// regardless of how delivery later interleaves.
func (l *Link) judge(p *vtime.Proc, tx *transmission) {
	if !tx.meta.Reliable {
		return
	}
	inj := l.faults()
	if inj == nil {
		return
	}
	v, pos := inj.Packet(l.Channel.net.Name, l.Src.Name, l.Dst.Name, p.Now(), len(tx.payload))
	switch v {
	case fault.DropPacket:
		tx.dropped = true
	case fault.CorruptPacket:
		tx.corruptAt = pos
	}
}

// applyCorruption flips one byte of the receiver-side copy when the send-time
// verdict said so. Only the receiver's copy is damaged — the sender's buffer
// is the retransmit source and stays intact, like a wire-level bit error.
func applyCorruption(buf []byte, tx *transmission) {
	if tx.meta.Reliable && tx.corruptAt >= 0 && len(buf) > 0 {
		buf[tx.corruptAt%len(buf)] ^= 0xA5
	}
}

func (l *Link) sendRendezvous(p *vtime.Proc, tx *transmission) {
	tx.rendezvous = true
	tx.senderW = p.Blocker("rendezvous grant")
	l.sim().AfterArg(l.nic.WireLatency, deliverTx, tx, 0)
	tx.senderW.Wait()
	p.Sleep(l.nic.RendezvousCost)
	l.flow(p, tx.meta.wireBytes(), len(tx.payload))
	// The NIC streams straight into the posted destination; only an
	// ungranted (slot) receive needs driver memory.
	if g := tx.granted; g != nil && g.dst != nil {
		l.place(g, tx.payload)
	} else {
		tx.slot = snapshot(tx.payload)
	}
	tx.dataReady = true
	l.sim().AfterArg(l.nic.WireLatency, wakeWaker, tx.recvW, 0)
}

// wakeWaker wakes the *vtime.Waker passed as w; scheduled through AfterArg.
func wakeWaker(w any, _ uint64) { w.(*vtime.Waker).Wake() }

// place puts payload into a posted destination without a CPU copy (the NIC
// wrote it there).
func (l *Link) place(g *postedRecv, payload []byte) {
	if len(payload) > len(g.dst) {
		panic(fmt.Sprintf("mad: posted receive of %d bytes for %d-byte transmission on %s",
			len(g.dst), len(payload), l.Channel.Name))
	}
	copy(g.dst, payload)
	g.placed = true
}

// snapshot copies payload into fresh driver memory; it models the NIC
// writing into protocol-owned buffers, so it charges no CPU time.
func snapshot(payload []byte) []byte {
	return append([]byte(nil), payload...)
}

// deliverTx delivers the *transmission passed as tx on its link; scheduled
// through AfterArg a wire latency after the send.
func deliverTx(tx any, _ uint64) {
	t := tx.(*transmission)
	t.link.deliver(t)
}

// deliver runs in scheduler context when a transmission (or rendezvous
// request) becomes visible at the receiver.
func (l *Link) deliver(tx *transmission) {
	if g := l.posted; g != nil {
		l.posted = nil
		g.tx = tx
		if tx.rendezvous && !tx.dataReady {
			// Grant: the receiver keeps waiting on its own waker,
			// which the sender fires after streaming.
			tx.granted = g
			tx.recvW = g.w
			tx.senderW.Wake()
		} else {
			if g.dst != nil && !l.nic.StaticBuffers {
				l.place(g, tx.payload)
				applyCorruption(g.dst[:len(tx.payload)], tx)
			} else {
				// A static-buffer NIC can only land data in its
				// own slots; the posted receiver pays the copy
				// out — the unavoidable copy of §2.3 when both
				// gateway sides are static.
				tx.slot = snapshot(tx.payload)
				applyCorruption(tx.slot, tx)
			}
			l.releaseCredit(tx)
			g.w.Wake()
		}
		l.notifyArrival(tx)
		tx.announced = true
		return
	}
	if !tx.rendezvous {
		tx.slot = snapshot(tx.payload)
		applyCorruption(tx.slot, tx)
		tx.dataReady = true
	}
	if !l.mailbox.TrySend(tx) {
		panic("mad: link mailbox overflow on " + l.Channel.Name)
	}
	l.notifyArrival(tx)
	tx.announced = true
}

func (l *Link) notifyArrival(tx *transmission) {
	if tx.meta.SOM && !tx.announced {
		l.Channel.notifyArrival(l, tx.meta)
	}
}

// Recv delivers the next transmission as driver-owned memory (slot
// handoff): no CPU copy is charged, but the caller must copy the payload
// out before reusing it across messages. The mirrored BMMs use this for
// aggregates; the gateway uses it when the egress side can send from the
// ingress slot.
func (l *Link) Recv(p *vtime.Proc) (TxMeta, []byte) {
	tx := l.receive(p, nil)
	l.drv.OnRecv(p, l.Dst.Host, len(tx.slot))
	l.releaseCredit(tx)
	return tx.meta, tx.slot
}

// RecvInto delivers the next transmission's payload into dst. If the
// receive was posted before the data arrived — the pipelined common case —
// the NIC places it directly and no CPU copy is charged; a late post pays a
// memcpy out of driver memory, exactly the copy the paper's zero-copy
// machinery exists to avoid. It returns the transmission metadata and the
// payload size.
func (l *Link) RecvInto(p *vtime.Proc, dst []byte) (TxMeta, int) {
	tx := l.receive(p, dst)
	n := tx.meta.payloadBytes()
	if tx.slot != nil && !tx.rendezvous {
		// Data was already in driver memory: charged copy.
		if len(dst) < n {
			panic("mad: posted buffer too small")
		}
		l.Dst.Host.Memcpy(p, n)
		copy(dst, tx.slot)
	} else if tx.slot != nil && tx.granted != nil && tx.granted.dst == nil {
		panic("mad: rendezvous slot delivery on RecvInto path")
	}
	l.drv.OnRecv(p, l.Dst.Host, n)
	l.releaseCredit(tx)
	return tx.meta, n
}

// releaseCredit returns the eager flow-control credit once a transmission
// has reached the receiver's hands — either delivered into a posted buffer
// or popped out of driver memory. Releasing at hand-off (not at unpack
// completion) is what lets a pipelined receiver keep the sender streaming
// with zero copies, like the exposed ring buffers of the real SISCI module.
func (l *Link) releaseCredit(tx *transmission) {
	if l.credits != nil && !tx.rendezvous && !tx.credited {
		tx.credited = true
		l.credits.Release(1)
	}
}

// receive implements the shared blocking logic of Recv/RecvInto.
func (l *Link) receive(p *vtime.Proc, dst []byte) *transmission {
	p.Sleep(l.nic.RecvOverhead)
	if tx, ok := l.mailbox.TryRecv(); ok {
		if tx.rendezvous && !tx.dataReady {
			// Grant a queued rendezvous request.
			g := &postedRecv{dst: dst}
			tx.granted = g
			w := p.Blocker("rendezvous data")
			tx.recvW = w
			tx.senderW.Wake()
			w.Wait()
			if dst != nil && !g.placed {
				panic("mad: rendezvous completion did not place payload")
			}
		}
		return tx
	}
	g := &postedRecv{dst: dst, w: p.Blocker(l.Channel.recvWait)}
	l.posted = g
	if len(l.gated) > 0 {
		w := l.gated[0]
		l.gated = l.gated[:copy(l.gated, l.gated[1:])]
		w.Wake()
	}
	g.w.Wait()
	return g.tx
}

// TryRecvReady reports whether a transmission is already waiting (used by
// non-blocking polls).
func (l *Link) TryRecvReady() bool { return l.mailbox.Len() > 0 }

// NIC returns the link's NIC model (used by the forwarding layer to pick
// fragment sizes).
func (l *Link) NIC() hw.NICParams { return l.nic }
