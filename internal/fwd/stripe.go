package fwd

// Multi-rail striping: one message transmitted in parallel over several
// link-disjoint routes ("rails") between the same node pair.
//
// The virtual channel of §2.2.1 bundles one real channel per network, but
// the paper's send path only ever *selects* one of them; on a configuration
// with both SCI and Myrinet between two clusters the second network idles.
// Striping splits the fragment stream of one large message across up to K
// rails found by route.ComputeK, rate-proportionally: each rail carries a
// contiguous byte span of the flattened message whose length is
// proportional to the rail's measured goodput (EWMA over previous striped
// sends to the same pair), falling back to the static bottleneck bandwidth
// of the rail's networks before any measurement exists.
//
// On the wire each rail is an ordinary self-described GTM-style stream with
// Kind KindStripe and an extended 48-byte header naming the rail, the rail
// count, the rail's byte span and the message's total size. Gateways relay
// a KindStripe stream exactly like a KindGTM one (they parse only the
// leading GTM fields they already understand and stay oblivious to the
// scheduling); the final receiver collects the rail sub-messages of one
// (origin, id) pair, posts each block's receives directly into the
// application buffer at the offsets the spans dictate — concurrent rails
// land in place, out of order, with zero extra copies — and completes when
// every rail's span has been consumed.
//
// Fragment placement is fully deterministic on both sides: rail r covers
// span [start, start+len) of the flattened message; within each packed
// block's flat range the rail sends the overlap, fragmented at the rail's
// own path MTU, never crossing a block boundary. The receiver mirrors the
// same arithmetic from the header fields alone, so no per-fragment offsets
// travel on the wire.
//
// Messages below Config.StripeThreshold (and pairs with a single route)
// take the existing single-rail path unchanged.

import (
	"encoding/binary"
	"fmt"

	"madgo/internal/flight"
	"madgo/internal/mad"
	"madgo/internal/obs"
	"madgo/internal/route"
	"madgo/internal/vtime"
)

// DefaultStripeThreshold is the message size below which striping is not
// attempted (Config.StripeThreshold == 0): small messages finish within a
// rail's pipeline fill time, so splitting them only adds per-rail header
// and reassembly overhead.
const DefaultStripeThreshold = 16 * 1024

// stripeHeaderLen is the wire size of a rail sub-message header: the 20
// GTM header bytes (source, destination, MTU, message id — byte-compatible
// with encodeGTMHeader so gateways can parse the routing fields without
// knowing about striping), then rail id, rail count, per-rail flags, and
// the rail's byte span within the message.
//
//	src u32 | dst u32 | mtu u32 | id u64 |
//	rail u8 | nrails u8 | flags u16 | spanStart u64 | spanLen u64 | total u64
const stripeHeaderLen = gtmHeaderLen + 28

// stripeFlagForwarded marks a rail whose route crosses at least one
// gateway; the receiver ORs it over rails for Unpacking.Forwarded.
const stripeFlagForwarded = 1 << 0

// stripeFlagAgg marks a rail of a striped aggregate frame (package agg):
// after reassembly the receiver decodes the frame into its coalesced
// sub-messages instead of delivering the striped message as-is.
const stripeFlagAgg = 1 << 1

// stripeMaxRails bounds Config.StripeK: the rail id travels as one byte.
const stripeMaxRails = 255

// stripeHdr is the decoded header of one rail sub-message.
type stripeHdr struct {
	src, dst  mad.Rank
	mtu       int
	id        uint64
	rail      int
	nrails    int
	flags     uint16
	spanStart int64
	spanLen   int64
	total     int64
}

func encodeStripeHeader(h stripeHdr) []byte {
	b := make([]byte, stripeHeaderLen)
	binary.LittleEndian.PutUint32(b[0:], uint32(h.src))
	binary.LittleEndian.PutUint32(b[4:], uint32(h.dst))
	binary.LittleEndian.PutUint32(b[8:], uint32(h.mtu))
	binary.LittleEndian.PutUint64(b[12:], h.id)
	b[20] = byte(h.rail)
	b[21] = byte(h.nrails)
	binary.LittleEndian.PutUint16(b[22:], h.flags)
	binary.LittleEndian.PutUint64(b[24:], uint64(h.spanStart))
	binary.LittleEndian.PutUint64(b[32:], uint64(h.spanLen))
	binary.LittleEndian.PutUint64(b[40:], uint64(h.total))
	return b
}

// decodeStripeHeader parses a rail header. Like decodeGTMHeader it never
// panics on malformed input: ok is false on a wrong length, an unusable
// MTU, a rail id outside the rail count, or spans that do not fit the
// advertised total (the fuzz target pins this down — the header crosses
// the wire and a corrupted span must not index a receiver out of bounds).
func decodeStripeHeader(b []byte) (stripeHdr, bool) {
	if len(b) != stripeHeaderLen {
		return stripeHdr{}, false
	}
	h := stripeHdr{
		src:    mad.Rank(binary.LittleEndian.Uint32(b[0:])),
		dst:    mad.Rank(binary.LittleEndian.Uint32(b[4:])),
		mtu:    int(binary.LittleEndian.Uint32(b[8:])),
		id:     binary.LittleEndian.Uint64(b[12:]),
		rail:   int(b[20]),
		nrails: int(b[21]),
		flags:  binary.LittleEndian.Uint16(b[22:]),
	}
	start := binary.LittleEndian.Uint64(b[24:])
	length := binary.LittleEndian.Uint64(b[32:])
	total := binary.LittleEndian.Uint64(b[40:])
	const span62 = 1 << 62 // keeps the int64 sums below overflow
	if h.mtu <= 0 || h.nrails < 1 || h.rail >= h.nrails {
		return stripeHdr{}, false
	}
	if start >= span62 || length >= span62 || total >= span62 || start+length > total {
		return stripeHdr{}, false
	}
	h.spanStart, h.spanLen, h.total = int64(start), int64(length), int64(total)
	return h, true
}

var stripeHeaderDesc = []mad.BlockDesc{{Size: stripeHeaderLen, S: mad.SendCheaper, R: mad.ReceiveExpress}}

// computeSpans partitions total bytes into len(rates) contiguous span
// lengths proportional to rates, written into spans (len(spans) must equal
// len(rates); the caller owns the slice, so steady-state scheduling does
// not allocate). Cumulative rounding keeps the result deterministic and
// exactly summing to total; non-positive rates are treated as equal shares.
func computeSpans(total int64, rates []float64, spans []int64) {
	if len(spans) != len(rates) {
		panic("fwd: computeSpans slice length mismatch")
	}
	sum := 0.0
	for _, r := range rates {
		if r > 0 {
			sum += r
		}
	}
	if sum <= 0 {
		// Degenerate: equal split.
		n := int64(len(rates))
		for i := range spans {
			spans[i] = total / n
		}
		spans[0] += total - (total/n)*n
		return
	}
	acc := 0.0
	prev := int64(0)
	for i, r := range rates {
		if r > 0 {
			acc += r
		}
		cut := int64(float64(total)*(acc/sum) + 0.5)
		if cut > total {
			cut = total
		}
		if i == len(rates)-1 {
			cut = total
		}
		spans[i] = cut - prev
		prev = cut
	}
}

// railKey identifies one rail of one ordered node pair for the goodput
// EWMA.
type railKey struct {
	src, dst string
	rail     int
}

// stripeState is the virtual channel's striping bookkeeping, allocated only
// when Config.StripeK > 1.
type stripeState struct {
	// kroutes caches route.ComputeK per ordered pair. Routes are static
	// unless a health monitor is armed, in which case the cache is tagged
	// with the routing epoch it was computed under and invalidated
	// wholesale on epoch change (see stripeRoutes).
	kroutes map[[2]string][]route.Route
	// epoch is the health monitor's routing epoch kroutes was built under
	// (0 = static, no monitor).
	epoch uint64
	// netRate is the static bottleneck bandwidth of each network
	// (bytes/s), from the bound NIC models.
	netRate map[string]float64
	// railRate is the measured per-rail goodput EWMA (bytes/s).
	railRate map[railKey]float64
	// lastFrac remembers the previous quota fractions per pair so a
	// changed split can be counted as a rebalance.
	lastFrac map[[2]string][]float64
	// rx collects, per receiver, the rail sub-messages of each (origin,
	// id) message until its rail set is complete.
	rx map[mad.Rank]map[relMsgKey]*stripeGroup

	// Counters (also exported through the obs registry).
	messages      int64
	rebalances    int64
	railFailovers int64
	railBytes     map[int]int64
}

// stripeGroup is one striped message being collected at its destination.
type stripeGroup struct {
	key   relMsgKey
	total int64
	rails []*stripeRail
	seen  [stripeMaxRails + 1]bool
	// agg is set when any rail carries stripeFlagAgg: the reassembled
	// bytes are an aggregate frame to be decoded, not an app message.
	agg bool
}

// stripeRail is one opened rail of a group: its link (receive side held
// acquired until EndUnpacking), header and consumption progress.
type stripeRail struct {
	link     *mad.Link
	hdr      stripeHdr
	consumed int64
}

// stripeEWMAAlpha weights the newest goodput measurement of a rail.
const stripeEWMAAlpha = 0.5

// stripeCounterNames are the striping counters pre-registered at zero when
// striping is armed, so snapshots show the series on unstriped runs too.
var stripeCounterNames = []string{
	"madgo_stripe_messages_total",
	"madgo_stripe_rebalance_total",
	"madgo_stripe_rail_failovers_total",
}

// initStriping computes the static rail state at Build time: the per-pair
// K-route cache (whose mid-route networks and intermediate nodes the
// caller adds to the special-channel and gateway sets) and the static
// network rates the scheduler falls back to before any goodput has been
// measured.
func (vc *VirtualChannel) initStriping(bindings map[string]Binding) {
	st := &stripeState{
		kroutes:   make(map[[2]string][]route.Route),
		netRate:   make(map[string]float64),
		railRate:  make(map[railKey]float64),
		lastFrac:  make(map[[2]string][]float64),
		rx:        make(map[mad.Rank]map[relMsgKey]*stripeGroup),
		railBytes: make(map[int]int64),
	}
	for _, nw := range vc.tp.Networks() {
		nic := bindings[nw.Name].Drv.NIC()
		r := nic.WireRate
		if nic.SendEngineRate > 0 && nic.SendEngineRate < r {
			r = nic.SendEngineRate
		}
		if nic.RecvEngineRate > 0 && nic.RecvEngineRate < r {
			r = nic.RecvEngineRate
		}
		st.netRate[nw.Name] = r
	}
	rate := func(nw string) float64 { return st.netRate[nw] }
	names := vc.tp.NodeNames()
	for _, src := range names {
		for _, dst := range names {
			if src == dst {
				continue
			}
			st.kroutes[[2]string{src, dst}] = route.ComputeK(vc.tp, src, dst, vc.cfg.StripeK, rate)
		}
	}
	vc.stripe = st
	for _, name := range stripeCounterNames {
		vc.metrics().Add(name, obs.Labels{"channel": vc.Name}, 0)
	}
}

// stripeRoutes returns the cached rail set of one pair (nil when striping
// is off or the pair is outside the primary topology). With a health
// monitor armed the cache is epoch-aware: a death or re-admission publishes
// a new epoch, the stale rail sets are dropped, and each pair's rails are
// recomputed on demand with the dead edges carved out of the graph — a
// killed rail shrinks the set (subsequent messages fall back to fewer
// rails, or the single-route path), and a re-admitted link restores it.
func (vc *VirtualChannel) stripeRoutes(src, dst string) []route.Route {
	st := vc.stripe
	if st == nil {
		return nil
	}
	mon := vc.mon
	if mon == nil {
		return st.kroutes[[2]string{src, dst}]
	}
	if ep := mon.Epoch(); ep != st.epoch {
		st.kroutes = make(map[[2]string][]route.Route)
		st.epoch = ep
	}
	key := [2]string{src, dst}
	rs, ok := st.kroutes[key]
	if !ok {
		if _, in := vc.tp.Node(src); in {
			if _, in := vc.tp.Node(dst); in {
				rate := func(nw string) float64 { return st.netRate[nw] }
				rs = route.ComputeKAvoiding(vc.tp, src, dst, vc.cfg.StripeK, rate, mon.DeadEdges())
			}
		}
		st.kroutes[key] = rs
	}
	return rs
}

// routeRate is a route's static bottleneck bandwidth.
func (vc *VirtualChannel) routeRate(r route.Route) float64 {
	min := 0.0
	for _, hop := range r {
		if w := vc.stripe.netRate[hop.Network]; min == 0 || w < min {
			min = w
		}
	}
	return min
}

// railRateFor is a rail's scheduling rate: the measured goodput EWMA when
// one exists, else the static bottleneck bandwidth.
func (vc *VirtualChannel) railRateFor(src, dst string, rail int, r route.Route) float64 {
	if w, ok := vc.stripe.railRate[railKey{src, dst, rail}]; ok {
		return w
	}
	return vc.routeRate(r)
}

// noteRailGoodput folds one measured rail transfer into the EWMA.
func (vc *VirtualChannel) noteRailGoodput(src, dst string, rail int, bytes int64, d vtime.Duration) {
	if d <= 0 || bytes <= 0 {
		return
	}
	measured := float64(bytes) / d.Seconds()
	key := railKey{src, dst, rail}
	if old, ok := vc.stripe.railRate[key]; ok {
		measured = stripeEWMAAlpha*measured + (1-stripeEWMAAlpha)*old
	}
	vc.stripe.railRate[key] = measured
	vc.metrics().Set("madgo_stripe_rail_rate_bytes_per_second", obs.Labels{
		"src": src, "dst": dst, "rail": fmt.Sprintf("%d", rail),
	}, vc.stripe.railRate[key])
}

// noteStripePlan records one scheduling decision: it counts the striped
// message and — when the quota fractions moved more than 1% against the
// pair's previous plan — a rebalance.
func (vc *VirtualChannel) noteStripePlan(src, dst string, spans []int64, total int64) {
	st := vc.stripe
	st.messages++
	vc.metrics().Add("madgo_stripe_messages_total", obs.Labels{"channel": vc.Name}, 1)
	frac := make([]float64, len(spans))
	for i, s := range spans {
		frac[i] = float64(s) / float64(total)
	}
	key := [2]string{src, dst}
	if prev, ok := st.lastFrac[key]; ok && len(prev) == len(frac) {
		for i := range frac {
			d := frac[i] - prev[i]
			if d > 0.01 || d < -0.01 {
				st.rebalances++
				vc.metrics().Add("madgo_stripe_rebalance_total", obs.Labels{"channel": vc.Name}, 1)
				break
			}
		}
	}
	st.lastFrac[key] = frac
}

// StripeStats aggregates the striping layer's counters.
type StripeStats struct {
	// Messages is how many messages were actually striped (sub-threshold
	// and single-route messages do not count).
	Messages int64
	// Rebalances is how many scheduling decisions changed a pair's quota
	// split by more than 1% against the previous message.
	Rebalances int64
	// RailFailovers is how many times a rail died mid-message in
	// reliable mode and its residual quota moved to the surviving rails.
	RailFailovers int64
	// RailReadmissions is how many dead links the health monitor restored
	// to service (each re-admission rebuilds the rail sets under a new
	// epoch). Zero without Config.Health.
	RailReadmissions int64
	// RailBytes is the payload bytes scheduled onto each rail index.
	RailBytes map[int]int64
}

// StripeStats returns the striping counters (zero-valued when striping is
// off).
func (vc *VirtualChannel) StripeStats() StripeStats {
	s := StripeStats{RailBytes: map[int]int64{}}
	if vc.stripe == nil {
		return s
	}
	s.Messages = vc.stripe.messages
	s.Rebalances = vc.stripe.rebalances
	s.RailFailovers = vc.stripe.railFailovers
	if vc.mon != nil {
		s.RailReadmissions = vc.mon.Readmissions()
	}
	for k, v := range vc.stripe.railBytes {
		s.RailBytes[k] = v
	}
	return s
}

// stripePacking is the sender side of a (potentially) striped message.
// Blocks are buffered until EndPacking — the scheduler needs the total size
// — and then either striped across the pair's rails or replayed through the
// ordinary single-rail path when the message is too small.
type stripePacking struct {
	vc     *VirtualChannel
	node   *mad.Node
	dst    string
	id     uint64
	blocks []packedBlock
	total  int64
	// aggFlag stamps stripeFlagAgg on every rail header: the message body
	// is an aggregate frame the receiver must decode after reassembly.
	aggFlag bool
}

func newStripePacking(vc *VirtualChannel, node *mad.Node, dst string) *stripePacking {
	return &stripePacking{vc: vc, node: node, dst: dst, id: vc.nextMsgID()}
}

func (sx *stripePacking) pack(p *vtime.Proc, data []byte, s mad.SendMode, r mad.RecvMode) {
	sx.blocks = bufferBlock(p, sx.node.Host, sx.blocks, data, s, r)
	sx.total += int64(len(data))
}

// threshold is the effective minimum striped-message size.
func (c Config) stripeThreshold() int64 {
	if c.StripeThreshold > 0 {
		return int64(c.StripeThreshold)
	}
	return DefaultStripeThreshold
}

func (sx *stripePacking) end(p *vtime.Proc) {
	vc := sx.vc
	src := sx.node.Name
	rails := vc.stripeRoutes(src, sx.dst)
	if sx.total < vc.cfg.stripeThreshold() || len(rails) < 2 {
		sx.fallback(p)
		return
	}

	// Rate-proportional quotas over the flattened message.
	rates := make([]float64, len(rails))
	for i, r := range rails {
		rates[i] = vc.railRateFor(src, sx.dst, i, r)
	}
	spans := make([]int64, len(rails))
	computeSpans(sx.total, rates, spans)
	vc.noteStripePlan(src, sx.dst, spans, sx.total)
	nrails := 0
	for _, ln := range spans {
		if ln > 0 {
			nrails++
		}
	}
	vc.metrics().RecordHop(sx.id, p.Now(), src, "stripe",
		fmt.Sprintf("split -> %s over %d rails %v", sx.dst, nrails, spans), int(sx.total))

	// One process per active rail; the app process drives the first rail
	// itself and joins the rest, so EndPacking returns when every rail
	// has fully emitted its span.
	sim := vc.sess.Platform.Sim
	t0 := p.Now()
	type railRun struct {
		idx   int
		start int64
		ln    int64
		done  vtime.Time
	}
	var runs []*railRun
	start := int64(0)
	for i, ln := range spans {
		if ln > 0 {
			runs = append(runs, &railRun{idx: i, start: start, ln: ln})
		}
		start += ln
	}
	var procs []*vtime.Proc
	for _, rr := range runs[1:] {
		rr := rr
		procs = append(procs, sim.Spawn(fmt.Sprintf("stripe:%s>%s:r%d", src, sx.dst, rr.idx),
			func(sp *vtime.Proc) {
				sx.sendRail(sp, rails[rr.idx], rr.idx, nrails, rr.start, rr.ln)
				rr.done = sp.Now()
			}))
	}
	sx.sendRail(p, rails[runs[0].idx], runs[0].idx, nrails, runs[0].start, runs[0].ln)
	runs[0].done = p.Now()
	for _, pr := range procs {
		p.Join(pr)
	}
	for _, rr := range runs {
		vc.noteRailGoodput(src, sx.dst, rr.idx, rr.ln, rr.done.Sub(t0))
		vc.stripe.railBytes[rr.idx] += rr.ln
		vc.metrics().Add("madgo_stripe_rail_bytes_total",
			obs.Labels{"node": src, "rail": fmt.Sprintf("%d", rr.idx)}, float64(rr.ln))
	}
}

// railMTU is the packet size of one rail: per-rail path MTU when the
// negotiation is on (each rail fragments at its own minimum), the global
// MTU otherwise.
func (vc *VirtualChannel) railMTU(r route.Route) int {
	if vc.cfg.PathMTU {
		return MTUForRoute(r, vc.netMTU)
	}
	return vc.cfg.MTU
}

// sendRail emits one rail sub-message: header, then for every packed block
// the part of the rail's span falling inside the block, fragmented at the
// rail's MTU (fragments never straddle block boundaries, so the receiver
// can mirror the layout from the header alone), then the terminator.
func (sx *stripePacking) sendRail(p *vtime.Proc, r route.Route, rail, nrails int, spanStart, spanLen int64) {
	vc := sx.vc
	hop := r[0]
	// Rails that relay through a gateway spend credits like any other
	// sender; direct rails answer to nobody (gw stays empty).
	link, gw := vc.egress(sx.node.Rank, hop, hop.To == sx.dst)
	mtu := vc.railMTU(r)
	var flags uint16
	if gw != "" {
		flags |= stripeFlagForwarded
	}
	if sx.aggFlag {
		flags |= stripeFlagAgg
	}
	tr := vc.cfg.Tracer
	t0 := p.Now()
	link.Acquire(p)
	vc.flowSpend(p, gw, sx.node.Name, sx.id)
	link.Send(p, mad.TxMeta{SOM: true, Kind: mad.KindStripe, Blocks: stripeHeaderDesc},
		encodeStripeHeader(stripeHdr{
			src: sx.node.Rank, dst: vc.NodeRank(sx.dst), mtu: mtu, id: sx.id,
			rail: rail, nrails: nrails, flags: flags,
			spanStart: spanStart, spanLen: spanLen, total: sx.total,
		}))
	net := hop.Network
	flat := int64(0)
	for _, b := range sx.blocks {
		bStart, bEnd := flat, flat+int64(len(b.data))
		flat = bEnd
		lo, hi := spanStart, spanStart+spanLen
		if bStart > lo {
			lo = bStart
		}
		if bEnd < hi {
			hi = bEnd
		}
		for off := lo; off < hi; {
			n := hi - off
			if n > int64(mtu) {
				n = int64(mtu)
			}
			vc.flowSpend(p, gw, sx.node.Name, sx.id)
			link.Send(p, mad.TxMeta{
				Kind:   mad.KindStripe,
				Blocks: []mad.BlockDesc{{Size: int(n), S: b.s, R: b.r}},
			}, b.data[off-bStart:off-bStart+n])
			vc.metrics().RecordHop(sx.id, p.Now(), sx.node.Name, "hop",
				fmt.Sprintf("rail %d: %s -> %s via %s", rail, sx.node.Name, link.Dst.Name, net), int(n))
			off += n
		}
	}
	vc.flowSpend(p, gw, sx.node.Name, sx.id)
	link.Send(p, mad.TxMeta{Kind: mad.KindStripe, EOM: true}, nil)
	link.Release(p)
	tr.Record(fmt.Sprintf("stripe:%s>%s", sx.node.Name, sx.dst), fmt.Sprintf("rail%d", rail),
		int(spanLen), t0, p.Now())
}

// fallback replays the buffered blocks through the single-rail path,
// framed exactly as BeginPacking would have sent them. Costs the extra
// buffering pass; messages this small are latency-bound anyway.
func (sx *stripePacking) fallback(p *vtime.Proc) {
	x := sx.vc.singleRail(p, sx.node, sx.dst, sx.id, " (below stripe threshold)")
	x.replay(p, sx.blocks)
	x.end(p)
}

// stripeBuffered sends an already buffered message (a coalescer bypass or
// an aggregate frame) the way a stripePacking would at EndPacking: across
// the pair's rails, or through the single-rail fallback. aggFlag marks an
// aggregate frame for decoding after reassembly.
func (vc *VirtualChannel) stripeBuffered(p *vtime.Proc, node *mad.Node, dst string, id uint64, blocks []packedBlock, aggFlag bool) {
	sx := &stripePacking{vc: vc, node: node, dst: dst, id: id, blocks: blocks, aggFlag: aggFlag}
	for _, b := range blocks {
		sx.total += int64(len(b.data))
	}
	sx.end(p)
}

// sendStriped pushes one full copy of a reliable message toward dst across
// the pair's rails: the packet stream is partitioned into contiguous
// per-rail runs proportional to each rail's scheduling rate, and every rail
// delivers its run to its own first hop under its own ARQ window. A rail
// whose neighbour stops acknowledging fails over: its residual quota moves
// to a shared overflow queue the surviving rails drain after their own
// runs. Packets left when every rail has finished (all rails failed, or a
// survivor exited before the failure) fall back to ordinary routed
// forwarding. It reports false when even that could not place a packet.
//
// The final destination needs no rail awareness: reliable fragments carry
// their index and reassemble out of order from any link, so striping in
// reliable mode is purely a sender-side scheduling decision.
func (e *relEngine) sendStriped(p *vtime.Proc, dst string, ds []relData, rails []route.Route, aw *relAwait) bool {
	vc := e.vc
	src := e.node.Name
	rates := make([]float64, len(rails))
	for i, r := range rails {
		rates[i] = vc.railRateFor(src, dst, i, r)
	}
	quotas := make([]int64, len(rails))
	computeSpans(int64(len(ds)), rates, quotas)
	queues := make([][]relData, len(rails))
	byteSpans := make([]int64, len(rails))
	total := int64(0)
	off := 0
	for i, q := range quotas {
		queues[i] = ds[off : off+int(q)]
		off += int(q)
		for _, d := range queues[i] {
			byteSpans[i] += int64(len(d.payload))
		}
		total += byteSpans[i]
	}
	vc.noteStripePlan(src, dst, byteSpans, total)
	e.hop(ds[0].id, p.Now(), "stripe",
		fmt.Sprintf("split -> %s over %d rails %v", dst, len(rails), byteSpans), int(total))

	var residual []relData
	failed := make([]bool, len(rails))
	w := e.pol.Window
	t0 := p.Now()
	runRail := func(rp *vtime.Proc, ri int) {
		hop := rails[ri][0]
		sent := int64(0)
		for !aw.done {
			var chunk []relData
			switch {
			case len(queues[ri]) > 0:
				n := min(w, len(queues[ri]))
				chunk, queues[ri] = queues[ri][:n], queues[ri][n:]
			case len(residual) > 0:
				n := min(w, len(residual))
				chunk, residual = residual[:n], residual[n:]
			}
			if chunk == nil {
				break
			}
			if bad := e.deliverBurst(rp, hop, chunk); len(bad) > 0 {
				// The rail stopped acknowledging. Its neighbour is NOT
				// marked node-dead — on a dual-direct configuration the
				// neighbour is the destination itself, reachable over the
				// surviving rails — the residual quota just moves over.
				residual = append(residual, bad...)
				residual = append(residual, queues[ri]...)
				queues[ri] = nil
				failed[ri] = true
				vc.stripe.railFailovers++
				vc.metrics().Add("madgo_stripe_rail_failovers_total",
					obs.Labels{"channel": vc.Name}, 1)
				e.hop(ds[0].id, rp.Now(), "rail-failover",
					fmt.Sprintf("rail %d via %s dead, %d packets re-striped", ri, hop.Network, len(residual)), 0)
				return
			}
			for _, d := range chunk {
				sent += int64(len(d.payload))
			}
		}
		if sent > 0 {
			vc.noteRailGoodput(src, dst, ri, sent, rp.Now().Sub(t0))
			vc.stripe.railBytes[ri] += sent
			vc.metrics().Add("madgo_stripe_rail_bytes_total",
				obs.Labels{"node": src, "rail": fmt.Sprintf("%d", ri)}, float64(sent))
		}
	}
	sim := vc.sess.Platform.Sim
	var procs []*vtime.Proc
	for ri := 1; ri < len(rails); ri++ {
		ri := ri
		procs = append(procs, sim.Spawn(fmt.Sprintf("stripe-rel:%s>%s:r%d", src, dst, ri),
			func(sp *vtime.Proc) { runRail(sp, ri) }))
	}
	runRail(p, 0)
	for _, pr := range procs {
		p.Join(pr)
	}
	// Leftovers: every rail exited (failed or drained before a later
	// failure). Push them down the surviving rails' own first hops — a
	// dead rail means a dead link, not a dead neighbour, so routed
	// forwarding (which would presume the next hop's *node* dead, fatal
	// when that node is the destination of a direct rail) is the last
	// resort, only once no rail is left standing.
	for len(residual) > 0 && !aw.done {
		n := min(w, len(residual))
		chunk := residual[:n]
		residual = residual[n:]
		ri := -1
		for i := range rails {
			if !failed[i] {
				ri = i
				break
			}
		}
		if ri < 0 {
			if !e.forwardBatch(p, dst, chunk) {
				return false
			}
			continue
		}
		if bad := e.deliverBurst(p, rails[ri][0], chunk); len(bad) > 0 {
			failed[ri] = true
			vc.stripe.railFailovers++
			vc.metrics().Add("madgo_stripe_rail_failovers_total",
				obs.Labels{"channel": vc.Name}, 1)
			e.hop(ds[0].id, p.Now(), "rail-failover",
				fmt.Sprintf("rail %d via %s dead draining leftovers, %d packets re-striped",
					ri, rails[ri][0].Network, len(bad)), 0)
			residual = append(bad, residual...)
		}
	}
	return true
}

// openStripeRail opens one announced rail sub-message: it acquires the
// link, reads the rail header, and files the rail under its (origin, id)
// group. It returns the group when this rail completed it, nil otherwise.
func (vc *VirtualChannel) openStripeRail(p *vtime.Proc, node *mad.Node, a *mad.Arrival) *stripeGroup {
	link := a.Link
	link.AcquireRecv(p)
	buf := make([]byte, stripeHeaderLen)
	meta, _ := link.RecvInto(p, buf)
	if !meta.SOM || meta.Kind != mad.KindStripe {
		panic("fwd: stripe unpacking of a message without a stripe header")
	}
	h, ok := decodeStripeHeader(buf)
	if !ok {
		panic("fwd: malformed stripe header delivered to " + node.Name)
	}
	if h.dst != node.Rank {
		panic(fmt.Sprintf("fwd: misrouted rail: %s received a rail for rank %d", node.Name, h.dst))
	}
	groups := vc.stripe.rx[node.Rank]
	if groups == nil {
		groups = make(map[relMsgKey]*stripeGroup)
		vc.stripe.rx[node.Rank] = groups
	}
	key := relMsgKey{origin: h.src, id: h.id}
	g := groups[key]
	if g == nil {
		g = &stripeGroup{key: key, total: h.total}
		groups[key] = g
	}
	if g.seen[h.rail] {
		panic(fmt.Sprintf("fwd: duplicate rail %d of message %d on %s", h.rail, h.id, node.Name))
	}
	if h.total != g.total {
		panic(fmt.Sprintf("fwd: rail %d disagrees on message size (%d != %d)", h.rail, h.total, g.total))
	}
	g.seen[h.rail] = true
	if h.flags&stripeFlagAgg != 0 {
		g.agg = true
	}
	g.rails = append(g.rails, &stripeRail{link: link, hdr: h})
	if len(g.rails) == h.nrails {
		delete(groups, key)
		return g
	}
	return nil
}

// stripeUnpacking is the receiver side of a striped message: every block's
// receive is posted directly into the application buffer at the offsets the
// rail spans dictate, one draining process per overlapping rail, so
// concurrently arriving rails land in place with zero extra copies.
type stripeUnpacking struct {
	vc   *VirtualChannel
	node *mad.Node
	g    *stripeGroup
	flat int64
	got  int64
}

func newStripeUnpacking(vc *VirtualChannel, node *mad.Node, g *stripeGroup) *stripeUnpacking {
	return &stripeUnpacking{vc: vc, node: node, g: g}
}

// from returns the origin rank of the striped message.
func (su *stripeUnpacking) from() mad.Rank { return su.g.rails[0].hdr.src }

// forwarded reports whether any rail crossed a gateway.
func (su *stripeUnpacking) forwarded() bool {
	for _, rl := range su.g.rails {
		if rl.hdr.flags&stripeFlagForwarded != 0 {
			return true
		}
	}
	return false
}

func (su *stripeUnpacking) unpack(p *vtime.Proc, dst []byte, s mad.SendMode, r mad.RecvMode) {
	B0 := su.flat
	B1 := B0 + int64(len(dst))
	su.flat = B1
	if len(dst) == 0 {
		// Empty blocks never travel on a rail (the sender skips them);
		// their mode constraints are vacuous.
		return
	}
	// Drain each overlapping rail's share of this block concurrently: all
	// but the first on spawned processes, the first inline, then join.
	var overlapping []*stripeRail
	for _, rl := range su.g.rails {
		lo, hi := railBlockOverlap(rl.hdr, B0, B1)
		if lo < hi {
			overlapping = append(overlapping, rl)
		}
	}
	if len(overlapping) == 0 {
		panic("fwd: striped block covered by no rail")
	}
	sim := su.vc.sess.Platform.Sim
	t0 := p.Now()
	var procs []*vtime.Proc
	for _, rl := range overlapping[1:] {
		rl := rl
		procs = append(procs, sim.Spawn(
			fmt.Sprintf("stripe-drain:%s:r%d", su.node.Name, rl.hdr.rail),
			func(sp *vtime.Proc) { su.drainRail(sp, rl, dst, B0, B1, s, r) }))
	}
	su.drainRail(p, overlapping[0], dst, B0, B1, s, r)
	for _, pr := range procs {
		p.Join(pr)
	}
	if len(overlapping) > 1 {
		// Reassembly cost of a striped block: the span from first drain start
		// to last rail completion, the window in which the destination is
		// stitching concurrent rails back into one buffer.
		su.vc.flightRing(su.node.Name).Record(
			flight.KindReassembly, p.Now(), vtime.Since(p.Now(), t0),
			su.g.key.id, len(dst), "")
	}
}

// railBlockOverlap returns the [lo, hi) flat range a rail contributes to a
// block spanning [B0, B1). Pure arithmetic — the allocation-regression test
// pins the reassembly bookkeeping at zero allocations.
func railBlockOverlap(h stripeHdr, B0, B1 int64) (int64, int64) {
	lo, hi := h.spanStart, h.spanStart+h.spanLen
	if B0 > lo {
		lo = B0
	}
	if B1 < hi {
		hi = B1
	}
	return lo, hi
}

// drainRail receives one rail's share of one block into dst, mirroring the
// sender's fragmentation exactly and verifying each fragment's descriptor
// against the mirrored modes.
func (su *stripeUnpacking) drainRail(p *vtime.Proc, rl *stripeRail, dst []byte, B0, B1 int64, s mad.SendMode, r mad.RecvMode) {
	lo, hi := railBlockOverlap(rl.hdr, B0, B1)
	mtu := int64(rl.hdr.mtu)
	for off := lo; off < hi; {
		n := hi - off
		if n > mtu {
			n = mtu
		}
		meta, got := rl.link.RecvInto(p, dst[off-B0:off-B0+n])
		if meta.EOM {
			panic("fwd: protocol error: rail terminator while fragments were expected")
		}
		if len(meta.Blocks) != 1 {
			panic("fwd: protocol error: stripe packet without exactly one block")
		}
		d := meta.Blocks[0]
		if d.S != s || d.R != r || d.Size != int(n) || got != int(n) {
			panic(fmt.Sprintf("fwd: protocol error: packed %v, unpacked {%dB %v %v}", d, n, s, r))
		}
		rl.consumed += n
		su.got += n
		off += n
	}
}

func (su *stripeUnpacking) end(p *vtime.Proc) {
	if su.flat != su.g.total {
		panic(fmt.Sprintf("fwd: striped message not fully unpacked (%d of %d bytes)", su.flat, su.g.total))
	}
	for _, rl := range su.g.rails {
		meta, _ := rl.link.Recv(p)
		if !meta.EOM {
			panic("fwd: protocol error: expected rail terminator")
		}
		rl.link.ReleaseRecv(p)
		if rl.consumed != rl.hdr.spanLen {
			panic(fmt.Sprintf("fwd: rail %d consumed %d of %d span bytes",
				rl.hdr.rail, rl.consumed, rl.hdr.spanLen))
		}
	}
	su.vc.metrics().RecordHop(su.g.key.id, p.Now(), su.node.Name, "deliver",
		fmt.Sprintf("reassembled at %s from %d rails", su.node.Name, len(su.g.rails)), int(su.got))
}
