package fwd

// Cross-message aggregation: the second half of the eager small-message
// path. The compact framing (eager.go) cuts a small forwarded message from
// three wire transfers to one, but a stream of tiny messages still pays the
// fixed ~40 µs per-transfer software overhead of §3.4.1 once per message.
// The coalescer below amortises it: consecutive sub-MTU messages from one
// node toward one destination are packed into a single MTU-sized aggregate
// frame (codec in package agg) and flushed as ONE wire transfer — one
// per-transfer overhead, one flow-control credit — when the frame fills, an
// idle deadline expires, or ordering demands it.
//
// Transport composition at flush time:
//
//   - streaming, single rail: the frame travels as one compact KindAgg
//     transfer ([GTM header | frame] with two block descriptors), relayed
//     obliviously by gateways (gateway.go, forwardEager);
//   - streaming, ≥2 rails and a frame past the stripe threshold: the frame
//     is striped like any large message, with stripeFlagAgg telling the
//     receiver to decode the reassembled bytes as a frame;
//   - reliable mode: the frame is one reliable message under a single ARQ
//     sequence (relFlagAgg), so retransmission and failover cover every
//     coalesced sub-message at once.
//
// Ordering: one coalescer serialises all its traffic under a mutex, frames
// flush in build order, and a message too large to coalesce first flushes
// whatever is pending ("ordering" flush) before taking the bypass path —
// per-sender delivery order toward one destination is preserved across
// small/large mixes. At the sink, decoded sub-messages are delivered FIFO
// before any new arrival is pulled.

import (
	"fmt"

	"madgo/internal/agg"
	"madgo/internal/flight"
	"madgo/internal/mad"
	"madgo/internal/obs"
	"madgo/internal/vtime"
	"madgo/internal/vtime/vsync"
)

// DefaultAggIdleFlush is the coalescer's idle deadline when
// Config.AggIdleFlush is zero: a partially filled frame is flushed once no
// new sub-message has joined it for this long. Chosen near the §3.4.1
// per-transfer overhead — waiting longer than one transfer's fixed cost to
// save a fraction of it is a bad trade.
const DefaultAggIdleFlush = 50 * vtime.Microsecond

// aggKey identifies one coalescer: the sending node and the final
// destination (aggregation batches per destination, not per next hop, so
// the sink can decode without re-grouping).
type aggKey struct {
	node, dst string
}

// aggSub is one decoded sub-message queued for delivery at its sink.
type aggSub struct {
	from mad.Rank
	id   uint64
	sub  agg.Sub
}

// AggStats aggregates the coalescing layer's counters. All fields are zero
// when Config.Aggregation is off.
type AggStats struct {
	// SubMessages is how many messages were coalesced into frames.
	SubMessages int64
	// Frames is how many aggregate frames were flushed, and FrameBytes
	// their summed wire size.
	Frames     int64
	FrameBytes int64
	// SizeFlushes, IdleFlushes and OrderingFlushes split Frames by
	// trigger: the frame limit, the idle deadline, or a large message
	// that had to drain the queue before bypassing it.
	SizeFlushes     int64
	IdleFlushes     int64
	OrderingFlushes int64
	// BypassMessages is how many messages were too large for an empty
	// frame and took the ordinary (eager/GTM/stripe/reliable) path.
	BypassMessages int64
}

// aggState is the virtual channel's aggregation bookkeeping: the lazily
// created coalescers and the per-sink delivery queues.
type aggState struct {
	co    map[aggKey]*aggCoalescer
	order []aggKey
	rx    map[mad.Rank][]aggSub
	stats AggStats
}

func newAggState() *aggState {
	return &aggState{
		co: make(map[aggKey]*aggCoalescer),
		rx: make(map[mad.Rank][]aggSub),
	}
}

// AggStats returns the aggregation counters (zero-valued when aggregation
// is off).
func (vc *VirtualChannel) AggStats() AggStats {
	if vc.aggst == nil {
		return AggStats{}
	}
	return vc.aggst.stats
}

// aggCoalescer batches one (node, destination) pair's small messages. All
// state is guarded by mu; flushes run to wire completion under the lock, so
// frames leave in build order and concurrent senders on the same node
// serialise here — which is exactly the ordering contract.
type aggCoalescer struct {
	vc   *VirtualChannel
	node *mad.Node
	dst  string
	mtu  int
	// limit is the frame byte budget: the path MTU minus the GTM header
	// the compact transfer prepends.
	limit int
	idle  vtime.Duration

	mu   vsync.Mutex
	kick *vsync.Sem
	b    *agg.Builder
	// enq and ids remember each queued sub-message's enqueue instant and
	// message ID for the agg-wait attribution at flush time.
	enq        []vtime.Time
	ids        []uint64
	lastAppend vtime.Time
	scratch    []agg.Block

	nodeLabels obs.Labels
	fr         *flight.Ring
}

// aggCoalescer returns (creating, with its idle-flush daemon) the coalescer
// of one (node, dst) pair.
func (vc *VirtualChannel) aggCoalescer(node *mad.Node, dst string) *aggCoalescer {
	st := vc.aggst
	key := aggKey{node: node.Name, dst: dst}
	if c, ok := st.co[key]; ok {
		return c
	}
	mtu := vc.PathMTU(node.Name, dst)
	idle := vc.cfg.AggIdleFlush
	if idle <= 0 {
		idle = DefaultAggIdleFlush
	}
	c := &aggCoalescer{
		vc: vc, node: node, dst: dst,
		mtu: mtu, limit: mtu - gtmHeaderLen, idle: idle,
		kick: vsync.NewSem(0),
		// The builder reserves the GTM header bytes in front of the frame,
		// so a flush detaches a ready-made wire payload with no extra copy.
		b:          agg.NewBuilderPrefix(gtmHeaderLen, mtu),
		nodeLabels: obs.Labels{"node": node.Name},
		fr:         vc.flightRing(node.Name),
	}
	st.co[key] = c
	st.order = append(st.order, key)
	vc.sess.Platform.Sim.SpawnDaemon(fmt.Sprintf("agg-flush:%s>%s", node.Name, dst),
		c.run)
	return c
}

// run is the idle-flush daemon: woken when the builder goes non-empty, it
// sleeps until the idle deadline measured from the LAST append (each new
// sub-message pushes the deadline out) and flushes whatever is still
// queued. A frame emptied meanwhile (size or ordering flush) just parks the
// daemon again.
func (c *aggCoalescer) run(p *vtime.Proc) {
	for {
		c.kick.Acquire(p, 1)
		for {
			c.mu.Lock(p)
			if c.b.Count() == 0 {
				c.mu.Unlock(p)
				break
			}
			elapsed := p.Now().Sub(c.lastAppend)
			if elapsed >= c.idle {
				c.flush(p, "idle")
				c.mu.Unlock(p)
				break
			}
			c.mu.Unlock(p)
			p.Sleep(c.idle - elapsed)
		}
	}
}

// add coalesces one finished message (or, when it cannot fit even an empty
// frame, drains the queue and bypasses). Called from aggPacking.end on the
// application's process.
func (c *aggCoalescer) add(p *vtime.Proc, id uint64, blocks []packedBlock, total int) {
	vc := c.vc
	st := vc.aggst
	c.mu.Lock(p)
	defer c.mu.Unlock(p)
	need := agg.SubSizeParts(len(blocks), total)
	if agg.HeaderLen+need > c.limit {
		// Larger than any frame this path can carry: preserve order by
		// flushing what is queued, then send it the ordinary way.
		c.flush(p, "ordering")
		c.noteBypass()
		c.sendBypass(p, id, blocks)
		return
	}
	if c.b.Len()+need > c.limit {
		c.flush(p, "size")
	}
	// Packing into the frame is the one real copy of the coalesced path.
	c.node.Host.Memcpy(p, total)
	c.scratch = c.scratch[:0]
	for _, b := range blocks {
		c.scratch = append(c.scratch, agg.Block{Data: b.data, S: uint8(b.s), R: uint8(b.r)})
	}
	c.b.Add(id, c.scratch)
	c.enq = append(c.enq, p.Now())
	c.ids = append(c.ids, id)
	c.lastAppend = p.Now()
	st.stats.SubMessages++
	vc.metrics().Add("madgo_agg_submessages_total", c.nodeLabels, 1)
	if c.b.Count() == 1 {
		c.kick.Release(1)
	}
}

// flush seals the pending frame and puts it on the wire as ONE logical
// transfer (single compact transfer, striped frame, or one reliable
// message). Must be called with mu held; a no-op on an empty builder.
func (c *aggCoalescer) flush(p *vtime.Proc, reason string) {
	if c.b.Count() == 0 {
		return
	}
	vc := c.vc
	st := vc.aggst
	m := vc.metrics()
	frameID := vc.nextMsgID()
	frame := c.b.Finish()
	flen := len(frame)
	count := c.b.Count()
	now := p.Now()
	for i, t := range c.enq {
		wait := vtime.Since(now, t)
		c.fr.Record(flight.KindAggWait, now, wait, c.ids[i], 0, "")
		m.ObserveDuration("madgo_agg_queue_wait_seconds", c.nodeLabels, wait)
	}
	c.fr.Record(flight.KindAggFlush, now, 0, frameID, flen, reason)
	m.Add("madgo_agg_frames_total", obs.Labels{"node": c.node.Name, "reason": reason}, 1)
	m.Add("madgo_agg_frame_bytes_total", c.nodeLabels, float64(flen))
	st.stats.Frames++
	st.stats.FrameBytes += int64(flen)
	switch reason {
	case "size":
		st.stats.SizeFlushes++
	case "idle":
		st.stats.IdleFlushes++
	case "ordering":
		st.stats.OrderingFlushes++
	}
	if m != nil {
		m.RecordHop(frameID, now, c.node.Name, "agg",
			fmt.Sprintf("flush(%s) -> %s: %d msgs, %d bytes", reason, c.dst, count, flen), flen)
	}

	// Detach the sealed buffer — [reserved GTM header | frame] — and hand
	// ownership to whichever transport carries it. The wire layer references
	// payloads instead of copying them and the ARQ may retransmit, so the
	// buffer must stay untouched after the flush; detaching (rather than
	// copying out of a reused buffer) is what keeps the flush itself
	// copy-free: the add()-time pack into the frame remains the coalesced
	// path's only copy.
	wire := c.b.Detach()
	switch {
	case vc.cfg.Reliable:
		// One ARQ sequence covers the whole frame. The send blocks this
		// process (and, via mu, later adders) until the end-to-end ack —
		// the same contract a reliable EndPacking has.
		vc.rel[c.node.Name].sendMessageFlags(p, c.dst,
			[]packedBlock{{data: wire[gtmHeaderLen:], s: mad.SendCheaper, r: mad.ReceiveCheaper}},
			frameID, relFlagAgg)
	case len(vc.stripeRoutes(c.node.Name, c.dst)) >= 2 && int64(flen) >= vc.cfg.stripeThreshold():
		// A frame past the stripe threshold rides the rails. Both end()
		// fallback conditions are excluded here, so the agg flag cannot
		// be lost to a plain replay.
		vc.stripeBuffered(p, c.node, c.dst, frameID,
			[]packedBlock{{data: wire[gtmHeaderLen:], s: mad.SendCheaper, r: mad.ReceiveCheaper}}, true)
	default:
		// Single compact transfer toward the first gateway: one credit,
		// one per-transfer overhead, however many messages inside. The
		// routing header is written into the reserved prefix in place.
		hop := vc.mustRoute(c.node.Name, c.dst)[0]
		link, gw := vc.egress(c.node.Rank, hop, hop.To == c.dst)
		putGTMHeader(wire, c.node.Rank, vc.NodeRank(c.dst), c.mtu, frameID)
		link.Acquire(p)
		vc.flowSpend(p, gw, c.node.Name, frameID)
		link.Send(p, mad.TxMeta{
			SOM:  true,
			EOM:  true,
			Kind: mad.KindAgg,
			Blocks: []mad.BlockDesc{gtmHeaderDesc[0],
				{Size: flen, S: mad.SendCheaper, R: mad.ReceiveCheaper}},
		}, wire)
		link.Release(p)
		if m != nil {
			m.RecordHop(frameID, p.Now(), c.node.Name, "hop",
				fmt.Sprintf("%s -> %s via %s (aggregate)", c.node.Name, link.Dst.Name, hop.Network), flen)
		}
	}
	c.enq = c.enq[:0]
	c.ids = c.ids[:0]
}

// sendBypass replays one too-large message through the ordinary non-agg
// path with its original pack modes (the receiver mirrors them against the
// wire descriptors). Called with mu held, right after the ordering flush.
func (c *aggCoalescer) sendBypass(p *vtime.Proc, id uint64, blocks []packedBlock) {
	vc := c.vc
	switch {
	case vc.cfg.Reliable:
		vc.rel[c.node.Name].sendMessage(p, c.dst, blocks, id)
	case len(vc.stripeRoutes(c.node.Name, c.dst)) >= 2:
		// Stripes, or falls back below the threshold.
		vc.stripeBuffered(p, c.node, c.dst, id, blocks, false)
	default:
		x := vc.singleRail(p, c.node, c.dst, id, " (agg bypass)")
		x.replay(p, blocks)
		x.end(p)
	}
}

// noteBypass counts one message that took the ordinary path instead of a
// frame.
func (c *aggCoalescer) noteBypass() {
	c.vc.aggst.stats.BypassMessages++
	c.vc.metrics().Add("madgo_agg_bypass_total", c.nodeLabels, 1)
}

// aggPacking is the sender side of an aggregated message: blocks are
// buffered (like the reliable and stripe packings) and handed to the
// coalescer at EndPacking. A message that outgrows the frame budget on a
// streaming single-rail path spills to that path mid-Pack, so large
// messages keep their fragment-level pipelining through the gateways.
type aggPacking struct {
	vc     *VirtualChannel
	node   *mad.Node
	dst    string
	id     uint64
	blocks []packedBlock
	total  int

	// spilled is the single-rail path after a spill, nil before.
	spilled railPacker
}

func newAggPacking(vc *VirtualChannel, node *mad.Node, dst string) *aggPacking {
	return &aggPacking{vc: vc, node: node, dst: dst, id: vc.nextMsgID()}
}

func (ax *aggPacking) pack(p *vtime.Proc, data []byte, s mad.SendMode, r mad.RecvMode) {
	if ax.spilled != nil {
		ax.spilled.pack(p, data, s, r)
		return
	}
	ax.blocks = bufferBlock(p, ax.node.Host, ax.blocks, data, s, r)
	ax.total += len(data)
	vc := ax.vc
	if !vc.cfg.Reliable && len(vc.stripeRoutes(ax.node.Name, ax.dst)) < 2 &&
		agg.HeaderLen+agg.SubSizeParts(len(ax.blocks), ax.total) > vc.PathMTU(ax.node.Name, ax.dst)-gtmHeaderLen {
		ax.spill(p)
	}
}

// spill switches a message that outgrew the frame budget onto the
// single-rail path: any frame already queued flushes first (ordering), then
// the buffered blocks replay and subsequent packs stream directly. Only
// reached on single-rail streaming routes — reliable and striped sends
// buffer until EndPacking anyway, so they bypass in add() instead.
func (ax *aggPacking) spill(p *vtime.Proc) {
	c := ax.vc.aggCoalescer(ax.node, ax.dst)
	c.mu.Lock(p)
	c.flush(p, "ordering")
	c.noteBypass()
	c.mu.Unlock(p)
	ax.spilled = ax.vc.singleRail(p, ax.node, ax.dst, ax.id, " (agg spill: outgrew frame budget)")
	ax.spilled.replay(p, ax.blocks)
	ax.blocks = nil
}

func (ax *aggPacking) end(p *vtime.Proc) {
	if ax.spilled != nil {
		ax.spilled.end(p)
		return
	}
	ax.vc.aggCoalescer(ax.node, ax.dst).add(p, ax.id, ax.blocks, ax.total)
}

// aggEnqueueFrame decodes one arrived aggregate frame and queues its
// sub-messages, in frame order, for delivery at the sink node. The frame
// was built by this process group's own coalescer, so malformation is a
// protocol error, not an input error (MustReader).
func (vc *VirtualChannel) aggEnqueueFrame(rank, from mad.Rank, frame []byte) {
	rd := agg.MustReader(frame)
	st := vc.aggst
	for {
		sub, ok := rd.Next()
		if !ok {
			break
		}
		st.rx[rank] = append(st.rx[rank], aggSub{from: from, id: sub.ID, sub: sub})
	}
}

// aggPop removes and returns the sink's oldest pending sub-message.
func (vc *VirtualChannel) aggPop(rank mad.Rank) (aggSub, bool) {
	st := vc.aggst
	if st == nil || len(st.rx[rank]) == 0 {
		return aggSub{}, false
	}
	as := st.rx[rank][0]
	st.rx[rank] = st.rx[rank][1:]
	return as, true
}

// openAggFrame receives one announced compact aggregate transfer (KindAgg,
// single-rail streaming flush) and queues its sub-messages.
func (vc *VirtualChannel) openAggFrame(p *vtime.Proc, node *mad.Node, a *mad.Arrival) {
	link := a.Link
	link.AcquireRecv(p)
	meta, slot := link.Recv(p)
	if !meta.SOM || !meta.EOM || meta.Kind != mad.KindAgg {
		panic("fwd: aggregate unpacking of a message without a compact frame")
	}
	if len(meta.Blocks) != 2 || meta.Blocks[0].Size != gtmHeaderLen {
		panic("fwd: protocol error: malformed aggregate transfer at " + node.Name)
	}
	src, dst, _, _, frame, ok := decodeGTMCompact(slot)
	if !ok {
		panic("fwd: malformed aggregate header delivered to " + node.Name)
	}
	if dst != node.Rank {
		panic(fmt.Sprintf("fwd: misrouted aggregate: %s received a frame for rank %d", node.Name, dst))
	}
	if meta.Blocks[1].Size != len(frame) {
		panic("fwd: protocol error: aggregate frame length disagrees with its descriptor")
	}
	link.ReleaseRecv(p)
	vc.aggEnqueueFrame(node.Rank, src, frame)
}

// aggDecodeStriped reassembles a striped aggregate frame (stripeFlagAgg)
// and queues its sub-messages.
func (vc *VirtualChannel) aggDecodeStriped(p *vtime.Proc, node *mad.Node, g *stripeGroup) {
	su := newStripeUnpacking(vc, node, g)
	frame := make([]byte, g.total)
	su.unpack(p, frame, mad.SendCheaper, mad.ReceiveCheaper)
	su.end(p)
	vc.aggEnqueueFrame(node.Rank, su.from(), frame)
}

// aggDecodeReliable reconstructs an aggregate frame from a reassembled
// reliable message (relFlagAgg) and queues its sub-messages.
func (vc *VirtualChannel) aggDecodeReliable(p *vtime.Proc, node *mad.Node, m *relMsg) {
	mtu, desc, ok := decodeRelDesc(m.frags[0])
	if !ok || len(desc) != 1 {
		panic("fwd: reliable aggregate frame with a malformed descriptor on " + node.Name)
	}
	frame := make([]byte, desc[0].Size)
	node.Host.Memcpy(p, len(frame))
	off := 0
	mad.ForEachFragment(len(frame), mtu, func(_, n int) {
		frag := m.frags[uint32(1+off/mtu)]
		if len(frag) != n {
			panic("fwd: reliable aggregate fragment size mismatch")
		}
		copy(frame[off:off+n], frag)
		off += n
	})
	if off != len(frame) {
		panic("fwd: reliable aggregate frame not fully reassembled")
	}
	vc.aggEnqueueFrame(node.Rank, m.origin, frame)
}

// aggUnpacking delivers one coalesced sub-message: its block structure and
// modes were carried inside the frame, so unpack mirrors them like every
// other module and copies the payload out of the (already received) frame.
type aggUnpacking struct {
	vc   *VirtualChannel
	node *mad.Node
	from mad.Rank
	id   uint64
	sub  agg.Sub
	next int
	off  int
}

func newAggUnpacking(vc *VirtualChannel, node *mad.Node, as aggSub) *aggUnpacking {
	return &aggUnpacking{vc: vc, node: node, from: as.from, id: as.id, sub: as.sub}
}

func (u *aggUnpacking) unpack(p *vtime.Proc, dst []byte, s mad.SendMode, r mad.RecvMode) {
	if u.next >= u.sub.NumBlocks() {
		panic("fwd: unpack past the end of an aggregated message")
	}
	size, sm, rm := u.sub.Block(u.next)
	u.next++
	if sm != uint8(s) || rm != uint8(r) || size != len(dst) {
		panic(fmt.Sprintf("fwd: protocol error: packed {%dB s=%d r=%d}, unpacked {%dB %v %v}",
			size, sm, rm, len(dst), s, r))
	}
	if size > 0 {
		u.node.Host.Memcpy(p, size)
		copy(dst, u.sub.Payload()[u.off:u.off+size])
	}
	u.off += size
}

func (u *aggUnpacking) end(p *vtime.Proc) {
	if u.next != u.sub.NumBlocks() {
		panic("fwd: aggregated message ended with unconsumed blocks")
	}
	u.vc.metrics().RecordHop(u.id, p.Now(), u.node.Name, "deliver",
		"decoalesced at "+u.node.Name, u.off)
}
