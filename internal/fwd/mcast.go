package fwd

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"

	"madgo/internal/flight"
	"madgo/internal/mad"
	"madgo/internal/obs"
	"madgo/internal/route"
	"madgo/internal/vtime"
	"madgo/internal/vtime/vsync"
)

// Gateway-native multicast. A KindMcast message is a self-described GTM
// packet stream whose header names a destination *set* instead of a single
// rank. The sender computes the (root, member-set) distribution tree over
// the unicast routing table (route.ComputeMulticast) and emits one stream
// per root branch; every gateway on the tree re-partitions the header's
// destination set by its own next hops, rewrites the header per branch, and
// replicates each staged fragment from its one ingress slot onto every
// egress link — so each network edge carries each fragment at most once, and
// the gateway's ingress byte count is independent of the receiver count.
//
// Framing mirrors the compact (eager) GTM: sub-MTU messages travel as one
// [header|payload] transfer with EOM set, larger ones as a header transfer
// followed by MTU-sized fragments with the terminator riding the last
// fragment's EOM flag. There is never a bare-terminator transfer.
//
// Flow control composes per branch: a relaying hop spends one credit per
// egress transfer toward its next gateway, so a slow subscriber
// backpressures only its own branch (until the shared staging ring drains,
// which is the bounded-memory backstop). Streaming mode only — the reliable
// protocol keeps its unicast framing, and collectives fall back to the
// binomial tree there (CanMulticast).

// mcastHeaderFixed is the fixed prefix of the multicast header: source rank
// (u32), tree MTU (u32), message ID (u64) and destination count (u16). The
// destination ranks (u32 each, strictly increasing) follow, then a CRC-32
// (IEEE) of everything before it. The CRC matters here more than on the
// unicast headers: a corrupted destination set silently mis-replicates,
// while a corrupted rank just misroutes one message.
const mcastHeaderFixed = 18

// mcastMaxDests bounds the destination count a decoder accepts, so a
// corrupted count cannot make a gateway allocate unbounded memory.
const mcastMaxDests = 4096

// mcastHeaderLen returns the wire size of a multicast header carrying count
// destinations.
func mcastHeaderLen(count int) int { return mcastHeaderFixed + 4*count + 4 }

// encodeMcastHeader builds the destination-set header. Ranks are encoded in
// strictly increasing order (the canonical form decodeMcastHeader enforces);
// the input is not modified.
func encodeMcastHeader(src mad.Rank, mtu int, id uint64, dests []mad.Rank) []byte {
	if len(dests) == 0 || len(dests) > mcastMaxDests {
		panic(fmt.Sprintf("fwd: mcast header with %d destinations", len(dests)))
	}
	sorted := append([]mad.Rank(nil), dests...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	b := make([]byte, mcastHeaderLen(len(sorted)))
	binary.LittleEndian.PutUint32(b[0:], uint32(src))
	binary.LittleEndian.PutUint32(b[4:], uint32(mtu))
	binary.LittleEndian.PutUint64(b[8:], id)
	binary.LittleEndian.PutUint16(b[16:], uint16(len(sorted)))
	for i, d := range sorted {
		binary.LittleEndian.PutUint32(b[mcastHeaderFixed+4*i:], uint32(d))
	}
	crc := crc32.ChecksumIEEE(b[:len(b)-4])
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc)
	return b
}

// decodeMcastHeader parses a destination-set header. Like the other wire
// codecs it never panics on malformed input (the fuzz target pins this): ok
// is false on a short or oversized buffer, a zero MTU, an out-of-range
// count, a non-canonical (unsorted or duplicated) destination list, or a CRC
// mismatch.
func decodeMcastHeader(b []byte) (src mad.Rank, mtu int, id uint64, dests []mad.Rank, ok bool) {
	if len(b) < mcastHeaderLen(1) {
		return 0, 0, 0, nil, false
	}
	count := int(binary.LittleEndian.Uint16(b[16:]))
	if count < 1 || count > mcastMaxDests || len(b) != mcastHeaderLen(count) {
		return 0, 0, 0, nil, false
	}
	if crc32.ChecksumIEEE(b[:len(b)-4]) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
		return 0, 0, 0, nil, false
	}
	mtu = int(binary.LittleEndian.Uint32(b[4:]))
	if mtu <= 0 {
		return 0, 0, 0, nil, false
	}
	dests = make([]mad.Rank, count)
	for i := range dests {
		dests[i] = mad.Rank(binary.LittleEndian.Uint32(b[mcastHeaderFixed+4*i:]))
		if i > 0 && dests[i] <= dests[i-1] {
			return 0, 0, 0, nil, false
		}
	}
	return mad.Rank(binary.LittleEndian.Uint32(b[0:])),
		mtu,
		binary.LittleEndian.Uint64(b[8:]),
		dests,
		true
}

// mcastHdrDesc types a multicast header transfer: cheap to send, express on
// receive (the relay must read it before deciding anything else).
func mcastHdrDesc(n int) mad.BlockDesc {
	return mad.BlockDesc{Size: n, S: mad.SendCheaper, R: mad.ReceiveExpress}
}

// mcastPlan is one cached (root, member-set) distribution plan: the tree and
// the tree MTU (minimum path MTU over every destination, so one fragment
// size fits every subtree — §2.3's connexion-MTU rule extended to trees).
type mcastPlan struct {
	tree *route.McastTree
	mtu  int
}

// mcastState is the channel-wide multicast state: the plan cache and the
// counters behind McastStats. Always allocated; streaming-only paths guard
// on CanMulticast.
type mcastState struct {
	plans map[string]*mcastPlan

	messages        int64
	relays          int64
	branches        int64
	replicatedPkts  int64
	replicatedBytes int64
	localDeliveries int64
	cacheHits       int64
	recomputes      int64
}

// McastStats are the multicast counters of one virtual channel. All zero
// when no multicast was ever sent (or in reliable mode, where collectives
// fall back to unicast trees).
type McastStats struct {
	// Messages counts multicast messages entered at roots.
	Messages int64 `json:"messages"`
	// Relays counts gateway replication operations (one per message per
	// gateway on its tree).
	Relays int64 `json:"relays"`
	// Branches counts egress branches fanned out, at roots and gateways.
	Branches int64 `json:"branches"`
	// ReplicatedPackets and ReplicatedBytes count gateway egress transfers
	// carrying payload; the gateway's *ingress* side is counted by the
	// ordinary relayed-packet counters and stays independent of the
	// receiver count.
	ReplicatedPackets int64 `json:"replicated_packets"`
	ReplicatedBytes   int64 `json:"replicated_bytes"`
	// LocalDeliveries counts messages a gateway delivered to its own node
	// while relaying (the gateway is itself a tree destination).
	LocalDeliveries int64 `json:"local_deliveries"`
	// TreeCacheHits and TreeRecomputes describe the plan cache; a
	// recompute happens on first use of a (root, member-set) pair and
	// whenever the routing epoch moved since the plan was built.
	TreeCacheHits  int64 `json:"tree_cache_hits"`
	TreeRecomputes int64 `json:"tree_recomputes"`
}

// McastStats returns the channel's multicast counters.
func (vc *VirtualChannel) McastStats() McastStats {
	st := vc.mcastst
	if st == nil {
		return McastStats{}
	}
	return McastStats{
		Messages: st.messages, Relays: st.relays, Branches: st.branches,
		ReplicatedPackets: st.replicatedPkts, ReplicatedBytes: st.replicatedBytes,
		LocalDeliveries: st.localDeliveries,
		TreeCacheHits:   st.cacheHits, TreeRecomputes: st.recomputes,
	}
}

// CanMulticast reports whether BeginMulticast is available: the streaming
// GTM only. The reliable datagram protocol keeps its own unicast framing,
// so collectives fall back to point-to-point trees there.
func (vc *VirtualChannel) CanMulticast() bool { return !vc.cfg.Reliable }

// mcastPlanFor returns the cached distribution plan of one (root, dests)
// pair, recomputing it on first use and whenever the routing table's epoch
// moved past the cached tree's.
func (vc *VirtualChannel) mcastPlanFor(root string, dests []string) *mcastPlan {
	st := vc.mcastst
	key := root + "\x00" + strings.Join(dests, "\x00")
	if pl, ok := st.plans[key]; ok && pl.tree.Epoch == vc.tbl.Epoch {
		st.cacheHits++
		return pl
	}
	tree, err := vc.tbl.ComputeMulticast(root, dests)
	if err != nil {
		panic(fmt.Sprintf("fwd: %v", err))
	}
	mtu := vc.cfg.MTU
	for _, d := range tree.Dests {
		if m := vc.PathMTU(root, d); m < mtu {
			mtu = m
		}
	}
	pl := &mcastPlan{tree: tree, mtu: mtu}
	st.plans[key] = pl
	st.recomputes++
	return pl
}

// mcastPacking is the sender side: blocks are buffered (multicast framing
// needs the total size to pick compact vs streaming, and every branch
// re-reads the same blocks), then EndPacking emits one stream per root
// branch of the distribution tree.
type mcastPacking struct {
	vc    *VirtualChannel
	node  *mad.Node
	dests []string // sorted, deduplicated, root excluded
	id    uint64
	total int
	blks  []packedBlock
}

// BeginMulticast starts a message to every named destination at once; the
// message is delivered byte-identically to each, replicated inside the
// network by the gateways of the distribution tree rather than by repeated
// unicast sends. Duplicate destinations and the sender itself are ignored;
// at least one other node must remain. Streaming mode only (CanMulticast).
func (e *Endpoint) BeginMulticast(p *vtime.Proc, dests ...string) *Packing {
	vc := e.vc
	if !vc.CanMulticast() {
		panic("fwd: BeginMulticast requires streaming mode (Reliable is set)")
	}
	set := make(map[string]bool, len(dests))
	for _, d := range dests {
		if _, ok := vc.nodes[d]; !ok {
			panic("fwd: unknown multicast destination " + d)
		}
		if d != e.node.Name {
			set[d] = true
		}
	}
	if len(set) == 0 {
		panic("fwd: multicast without destinations on " + e.node.Name)
	}
	ds := make([]string, 0, len(set))
	for d := range set {
		ds = append(ds, d)
	}
	sort.Strings(ds)
	x := &mcastPacking{vc: vc, node: e.node, dests: ds, id: vc.nextMsgID()}
	if m := vc.metrics(); m != nil {
		m.RecordHop(x.id, p.Now(), e.node.Name, "pack", fmt.Sprintf("mcast -> {%s}", strings.Join(ds, ",")), 0)
	}
	return &Packing{x: x, id: x.id}
}

func (x *mcastPacking) pack(p *vtime.Proc, data []byte, s mad.SendMode, r mad.RecvMode) {
	if s == mad.SendSafer {
		// Same contract as the GTM: SendSafer needs an immediate snapshot;
		// all other modes hold the block by reference until EndPacking.
		data = x.vc.snapshot(p, x.node, x.id, data)
	}
	x.blks = append(x.blks, packedBlock{data: data, s: s, r: r})
	x.total += len(data)
}

func (x *mcastPacking) end(p *vtime.Proc) {
	vc := x.vc
	st := vc.mcastst
	pl := vc.mcastPlanFor(x.node.Name, x.dests)
	st.messages++
	m := vc.metrics()
	nodeLabels := obs.Labels{"node": x.node.Name}
	m.Add("madgo_mcast_messages_total", nodeLabels, 1)
	for _, b := range pl.tree.Branches[x.node.Name] {
		x.sendBranch(p, b, pl.mtu)
		st.branches++
		m.Add("madgo_mcast_branches_total", nodeLabels, 1)
	}
}

// blockDescs returns the wire descriptors of the buffered blocks with
// zero-size blocks elided — a zero-size block produces no fragment in the
// streaming framing, so the compact framing must not describe one either.
func (x *mcastPacking) blockDescs() []mad.BlockDesc {
	var out []mad.BlockDesc
	for _, b := range x.blks {
		if len(b.data) > 0 {
			out = append(out, mad.BlockDesc{Size: len(b.data), S: b.s, R: b.r})
		}
	}
	return out
}

// sendBranch emits the message once toward one root branch: compact when the
// whole payload shares a transfer with the header, streaming otherwise. A
// relaying branch travels on the network's special channel toward the next
// gateway and spends one flow credit per transfer; a leaf branch goes
// straight to its sole destination on the regular channel (see egress).
func (x *mcastPacking) sendBranch(p *vtime.Proc, b route.McastBranch, mtu int) {
	vc := x.vc
	link, spendTo := vc.egress(x.node.Rank, b.Hop, !b.Relays())
	ranks := make([]mad.Rank, len(b.Dests))
	for i, d := range b.Dests {
		ranks[i] = vc.NodeRank(d)
	}
	hdr := encodeMcastHeader(x.node.Rank, mtu, x.id, ranks)
	net := b.Hop.Network
	fr := vc.flightRing(x.node.Name)

	link.Acquire(p)
	defer link.Release(p)
	fr.Record(flight.KindReplicate, p.Now(), 0, x.id, x.total, net)
	if x.total <= eagerInlineMax && len(hdr)+x.total <= mtu {
		// Compact: header and every block in one transfer, EOM included.
		// Building the contiguous frame copies the payload once per branch.
		frame := make([]byte, len(hdr)+x.total)
		off := copy(frame, hdr)
		for _, blk := range x.blks {
			off += copy(frame[off:], blk.data)
		}
		if x.total > 0 {
			x.node.Host.Memcpy(p, x.total)
		}
		vc.flowSpend(p, spendTo, x.node.Name, x.id)
		link.Send(p, mad.TxMeta{SOM: true, EOM: true, Kind: mad.KindMcast,
			Blocks: append([]mad.BlockDesc{mcastHdrDesc(len(hdr))}, x.blockDescs()...)}, frame)
		if m := vc.metrics(); m != nil {
			m.RecordHop(x.id, p.Now(), x.node.Name, "hop",
				fmt.Sprintf("%s -> %s via %s (mcast compact, %d dests)", x.node.Name, b.Hop.To, net, len(b.Dests)), x.total)
		}
		return
	}
	// Streaming: header first, then MTU-sized fragments; the terminator
	// rides the last fragment's EOM flag (never a bare transfer).
	vc.flowSpend(p, spendTo, x.node.Name, x.id)
	link.Send(p, mad.TxMeta{SOM: true, Kind: mad.KindMcast,
		Blocks: []mad.BlockDesc{mcastHdrDesc(len(hdr))}}, hdr)
	frags := 0
	for _, blk := range x.blks {
		if len(blk.data) > 0 {
			mad.ForEachFragment(len(blk.data), mtu, func(int, int) { frags++ })
		}
	}
	for _, blk := range x.blks {
		if len(blk.data) == 0 {
			// Zero-size blocks produce no wire fragment, mirroring the
			// compact framing's elided descriptors.
			continue
		}
		blk := blk
		mad.ForEachFragment(len(blk.data), mtu, func(off, n int) {
			frags--
			vc.flowSpend(p, spendTo, x.node.Name, x.id)
			link.Send(p, mad.TxMeta{EOM: frags == 0, Kind: mad.KindMcast,
				Blocks: []mad.BlockDesc{{Size: n, S: blk.s, R: blk.r}}}, blk.data[off:off+n])
		})
	}
	if m := vc.metrics(); m != nil {
		m.RecordHop(x.id, p.Now(), x.node.Name, "hop",
			fmt.Sprintf("%s -> %s via %s (mcast, %d dests)", x.node.Name, b.Hop.To, net, len(b.Dests)), x.total)
	}
}

// mcastLocal is a fully captured multicast message a relaying gateway
// delivers to its own node: the gateway copies each staged fragment out of
// the shared ring (or retains the compact frame's slot) and funnels the
// result through the node's merged arrival queue like any other incoming.
type mcastLocal struct {
	from  mad.Rank
	id    uint64
	mtu   int
	frags [][]byte
	descs []mad.BlockDesc
}

// mcastUnpacking is the receiver side, serving three arrival shapes through
// one walk: a compact wire frame (payload parked from the first transfer), a
// streaming wire message (fragments received in place), and a gateway-local
// capture (fragments pre-copied, no link at all).
type mcastUnpacking struct {
	vc   *VirtualChannel
	node *mad.Node
	link *mad.Link // nil for a gateway-local capture
	mtu  int
	from mad.Rank
	id   uint64
	got  int

	frags   [][]byte // pre-received fragments (compact payload or local capture)
	descs   []mad.BlockDesc
	next    int
	eomSeen bool
}

// rankInSet reports membership of r in a sorted rank set.
func rankInSet(r mad.Rank, set []mad.Rank) bool {
	i := sort.Search(len(set), func(i int) bool { return set[i] >= r })
	return i < len(set) && set[i] == r
}

func newMcastUnpacking(p *vtime.Proc, vc *VirtualChannel, node *mad.Node, a *mad.Arrival) *mcastUnpacking {
	link := a.Link
	link.AcquireRecv(p)
	meta, slot := link.Recv(p)
	if !meta.SOM || meta.Kind != mad.KindMcast || len(meta.Blocks) < 1 ||
		meta.Blocks[0].Size > len(slot) {
		panic("fwd: mcast unpacking of a message without a multicast header")
	}
	hsize := meta.Blocks[0].Size
	src, mtu, id, dests, ok := decodeMcastHeader(slot[:hsize])
	if !ok {
		panic("fwd: malformed multicast header delivered to " + node.Name)
	}
	if !rankInSet(node.Rank, dests) {
		panic(fmt.Sprintf("fwd: misrouted multicast: %s is not in the destination set", node.Name))
	}
	g := &mcastUnpacking{vc: vc, node: node, link: link, mtu: mtu, from: src, id: id, eomSeen: meta.EOM}
	payload := slot[hsize:]
	if len(meta.Blocks) > 1 {
		// Compact frame: the remaining descriptors slice the payload.
		if !meta.EOM {
			panic("fwd: protocol error: compact multicast frame without its terminator")
		}
		off := 0
		for _, d := range meta.Blocks[1:] {
			if off+d.Size > len(payload) {
				panic("fwd: protocol error: multicast fragment descriptors overrun the frame")
			}
			g.frags = append(g.frags, payload[off:off+d.Size])
			g.descs = append(g.descs, d)
			off += d.Size
		}
		if off != len(payload) {
			panic("fwd: protocol error: multicast frame with trailing bytes")
		}
	} else if len(payload) != 0 {
		panic("fwd: protocol error: header-only multicast transfer with trailing bytes")
	}
	return g
}

func newMcastLocalUnpacking(vc *VirtualChannel, node *mad.Node, ml *mcastLocal) *mcastUnpacking {
	return &mcastUnpacking{vc: vc, node: node, mtu: ml.mtu, from: ml.from, id: ml.id,
		frags: ml.frags, descs: ml.descs, eomSeen: true}
}

func (g *mcastUnpacking) unpack(p *vtime.Proc, dst []byte, s mad.SendMode, r mad.RecvMode) {
	mad.ForEachFragment(len(dst), g.mtu, func(off, n int) {
		if n == 0 {
			// Zero-size blocks never reach the wire (the sender elides
			// their descriptors), so there is nothing to consume.
			return
		}
		if g.next < len(g.frags) {
			d := g.descs[g.next]
			if d.S != s || d.R != r || d.Size != n {
				panic(fmt.Sprintf("fwd: protocol error: packed %v, unpacked {%dB %v %v}", d, n, s, r))
			}
			// The fragment landed glued to the header (or was captured into
			// gateway memory); handing it over is one real copy.
			g.node.Host.Memcpy(p, n)
			copy(dst[off:off+n], g.frags[g.next])
			g.next++
			g.got += n
			return
		}
		if g.link == nil || g.eomSeen {
			panic("fwd: protocol error: blocks expected after the multicast terminator")
		}
		meta, got := g.link.RecvInto(p, dst[off:off+n])
		if len(meta.Blocks) != 1 {
			panic("fwd: protocol error: multicast packet without exactly one block")
		}
		d := meta.Blocks[0]
		if d.S != s || d.R != r || d.Size != n || got != n {
			panic(fmt.Sprintf("fwd: protocol error: packed %v, unpacked {%dB %v %v}", d, n, s, r))
		}
		g.eomSeen = meta.EOM
		g.got += got
	})
}

func (g *mcastUnpacking) end(p *vtime.Proc) {
	if g.next != len(g.frags) {
		panic("fwd: protocol error: multicast message ended with unconsumed fragments")
	}
	if !g.eomSeen {
		panic("fwd: protocol error: multicast message ended before its terminator")
	}
	if g.link != nil {
		g.link.ReleaseRecv(p)
	}
	g.vc.metrics().RecordHop(g.id, p.Now(), g.node.Name, "deliver",
		"reassembled at "+g.node.Name, g.got)
}

// mcastEgressBranch is one egress decision a relaying gateway made for the
// current message: the rewritten header, the link, and whether the next hop
// relays further (and therefore takes flow credits).
type mcastEgressBranch struct {
	hop    route.Hop
	out    *mad.Link
	hdr    []byte
	nextGW string // non-empty when the branch relays beyond its next hop
	q      *vsync.Chan[*mcastPkt]
	proc   *vtime.Proc
}

// mcastPkt is one staged fragment shared by every branch sender of a
// streaming multicast relay; refs counts the branch sends still owing, and
// the last one recycles the ring buffer (and returns the ingress credit).
type mcastPkt struct {
	data []byte
	desc []mad.BlockDesc
	buf  []byte
	eom  bool
	refs int
}

// mcastSplit partitions a destination set at this gateway: the local flag if
// the gateway itself is a destination, plus one egress branch per distinct
// next hop, sorted by (network, next hop) like the planner's — by
// construction the two agree, since both follow the same unicast table.
func (g *Gateway) mcastSplit(src mad.Rank, mtu int, msgID uint64, dests []mad.Rank) (branches []*mcastEgressBranch, local bool) {
	vc := g.vc
	type grp struct {
		hop   route.Hop
		ranks []mad.Rank
		past  bool // some destination lies beyond the next hop
	}
	var groups []*grp
	byHop := make(map[route.Hop]*grp)
	for _, d := range dests {
		name := vc.sess.Node(d).Name
		if name == g.name {
			local = true
			continue
		}
		hop, ok := vc.tbl.NextHop(g.name, name)
		if !ok {
			panic(fmt.Sprintf("fwd: gateway %s has no route to multicast destination %s", g.name, name))
		}
		gr := byHop[hop]
		if gr == nil {
			gr = &grp{hop: hop}
			byHop[hop] = gr
			groups = append(groups, gr)
		}
		gr.ranks = append(gr.ranks, d)
		if name != hop.To {
			gr.past = true
		}
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].hop.Network != groups[j].hop.Network {
			return groups[i].hop.Network < groups[j].hop.Network
		}
		return groups[i].hop.To < groups[j].hop.To
	})
	for _, gr := range groups {
		out, nextGW := vc.egress(g.node.Rank, gr.hop, !gr.past && len(gr.ranks) == 1)
		branches = append(branches, &mcastEgressBranch{
			hop:    gr.hop,
			out:    out,
			hdr:    encodeMcastHeader(src, mtu, msgID, gr.ranks),
			nextGW: nextGW,
		})
	}
	return branches, local
}

// forwardMcast relays one multicast message: read the destination-set header
// off the ingress slot, re-partition the set by this gateway's next hops,
// and replicate — one ingress receive, N egress sends. A compact frame is
// rebuilt per branch ([branch header|payload]) and handed to the per-egress
// async sender daemons like any compact relay; a streaming message runs the
// staged pipeline with refcounted ring buffers, each fragment received once
// and sent by one spawned sender per branch. Returns the ingress payload
// bytes relayed (the DRR charge), which is independent of the branch count.
func (g *Gateway) forwardMcast(p *vtime.Proc, a *mad.Arrival) int64 {
	vc := g.vc
	in := a.Link
	in.AcquireRecv(p)
	defer in.ReleaseRecv(p)
	bytesBefore := g.bytes

	meta, slot := in.Recv(p)
	if !meta.SOM || meta.Kind != mad.KindMcast || len(meta.Blocks) < 1 ||
		meta.Blocks[0].Size > len(slot) {
		panic("fwd: malformed multicast header at gateway " + g.name)
	}
	hsize := meta.Blocks[0].Size
	src, mtu, msgID, dests, ok := decodeMcastHeader(slot[:hsize])
	if !ok {
		panic("fwd: malformed multicast header at gateway " + g.name)
	}
	// The header transfer consumed one upstream credit; it is out of the
	// ingress slot now, so the credit goes straight back.
	up := in.Src.Name
	vc.flowGrant(g.name, up, 1)

	st := vc.mcastst
	m := vc.metrics()
	fr := vc.flightRing(g.name)
	gwLabels := obs.Labels{"gateway": g.name}
	nodeLabels := obs.Labels{"node": g.name}
	inNet := in.Channel.Network().Name
	branches, local := g.mcastSplit(src, mtu, msgID, dests)
	st.relays++
	m.Add("madgo_mcast_relays_total", gwLabels, 1)
	st.branches += int64(len(branches))
	m.Add("madgo_mcast_branches_total", nodeLabels, float64(len(branches)))
	if m != nil {
		m.RecordHop(msgID, p.Now(), g.name, "relay",
			fmt.Sprintf("mcast %s -> %d branches (%d dests)", inNet, len(branches), len(dests)), 0)
	}
	g.messages++

	if meta.EOM {
		// Compact frame: fully in gateway memory. Rebuild [header|payload]
		// per branch and queue each on its egress daemon; the polling
		// thread is free as soon as the copies are staged.
		payload := slot[hsize:]
		pdescs := meta.Blocks[1:]
		if n := len(payload); n > 0 {
			g.packets++
			g.bytes += int64(n)
			m.Add("madgo_gateway_relayed_packets_total", gwLabels, 1)
			m.Add("madgo_gateway_relayed_bytes_total", gwLabels, float64(n))
		}
		for _, b := range branches {
			frame := make([]byte, len(b.hdr)+len(payload))
			off := copy(frame, b.hdr)
			copy(frame[off:], payload)
			if len(payload) > 0 {
				g.node.Host.Memcpy(p, len(payload))
			}
			st.replicatedPkts++
			st.replicatedBytes += int64(len(payload))
			m.Add("madgo_mcast_replicated_packets_total", gwLabels, 1)
			m.Add("madgo_mcast_replicated_bytes_total", gwLabels, float64(len(payload)))
			fr.Record(flight.KindReplicate, p.Now(), 0, msgID, len(payload), b.hop.Network)
			g.sendEgress(p, b.out, gwEgressTx{
				meta: mad.TxMeta{SOM: true, EOM: true, Kind: mad.KindMcast,
					Blocks: append([]mad.BlockDesc{mcastHdrDesc(len(b.hdr))}, pdescs...)},
				data: frame, msgID: msgID, nextGW: b.nextGW,
			})
		}
		if local {
			g.mcastDeliverLocal(p, &mcastLocal{from: src, id: msgID, mtu: mtu,
				frags: splitByDescs(payload, pdescs), descs: pdescs})
		}
		return g.bytes - bytesBefore
	}

	// Streaming message: staged pipeline with refcounted replication. One
	// sender per branch streams the shared fragments; the last branch to
	// send a fragment recycles its buffer and returns the ingress credit.
	g.mcastPipeline(p, in, branches, local, src, mtu, msgID, up)
	return g.bytes - bytesBefore
}

// splitByDescs slices a contiguous compact payload back into per-block
// fragments.
func splitByDescs(payload []byte, descs []mad.BlockDesc) [][]byte {
	frags := make([][]byte, 0, len(descs))
	off := 0
	for _, d := range descs {
		if off+d.Size > len(payload) {
			panic("fwd: protocol error: multicast fragment descriptors overrun the frame")
		}
		frags = append(frags, payload[off:off+d.Size])
		off += d.Size
	}
	if off != len(payload) {
		panic("fwd: protocol error: multicast frame with trailing bytes")
	}
	return frags
}

// mcastDeliverLocal hands a captured multicast message to this gateway's own
// node through its merged arrival queue (so a BeginUnpacking blocked there
// wakes up like for any other arrival).
func (g *Gateway) mcastDeliverLocal(p *vtime.Proc, ml *mcastLocal) {
	st := g.vc.mcastst
	st.localDeliveries++
	g.vc.metrics().Add("madgo_mcast_local_deliveries_total", obs.Labels{"node": g.name}, 1)
	g.vc.merged[g.node.Rank].Send(p, incoming{mcast: ml})
}

// mcastPipeline is the streaming replication loop: the relay thread receives
// each fragment once into a ring buffer and every branch sender retransmits
// it, with the ring's free list bounding how far ingress runs ahead of the
// slowest branch. Buffers are plain pool buffers in every election mode — a
// replicated fragment leaves on several egress networks at once, so no
// single egress driver's static buffers (nor the one ingress slot) can back
// it.
func (g *Gateway) mcastPipeline(p *vtime.Proc, in *mad.Link, branches []*mcastEgressBranch, local bool, src mad.Rank, mtu int, msgID uint64, up string) {
	vc := g.vc
	cfg := vc.cfg
	tr := cfg.Tracer
	m := vc.metrics()
	fr := vc.flightRing(g.name)
	st := vc.mcastst
	gwLabels := obs.Labels{"gateway": g.name}
	host := g.node.Host
	inNet := in.Channel.Network().Name
	recvActor := g.label("%s:recv:%s", inNet)
	r := g.ring(inNet)
	for i := 0; i < cfg.PipelineDepth; i++ {
		r.free.TrySend(r.pool.get(mtu))
	}
	sim := vc.sess.Platform.Sim

	capture := &mcastLocal{from: src, id: msgID, mtu: mtu}
	recycle := func(sp *vtime.Proc, pkt *mcastPkt) {
		pkt.refs--
		if pkt.refs > 0 {
			return
		}
		r.free.Send(sp, pkt.buf)
		// The ingress transfer behind this buffer has drained through
		// every branch — its credit goes back to the sender.
		vc.flowGrant(g.name, up, 1)
	}

	for _, b := range branches {
		b := b
		outNet := b.hop.Network
		b.q = vsync.NewChan[*mcastPkt](g.label("gwmq:%s>%s", b.hop.To), cfg.PipelineDepth)
		sendActor := g.label("%s:send:%s", outNet)
		b.proc = sim.Spawn(g.label("gwmsend:%s>%s", b.hop.To), func(sp *vtime.Proc) {
			g.fenceEgress(sp, b.out)
			b.out.Acquire(sp)
			defer b.out.Release(sp)
			vc.flowSpend(sp, b.nextGW, g.name, msgID)
			b.out.Send(sp, mad.TxMeta{SOM: true, Kind: mad.KindMcast,
				Blocks: []mad.BlockDesc{mcastHdrDesc(len(b.hdr))}}, b.hdr)
			for {
				pkt, _ := b.q.Recv(sp)
				vc.flowSpend(sp, b.nextGW, g.name, msgID)
				t0 := sp.Now()
				b.out.Send(sp, mad.TxMeta{Kind: mad.KindMcast, EOM: pkt.eom, Blocks: pkt.desc}, pkt.data)
				tr.Record(sendActor, "send", len(pkt.data), t0, sp.Now())
				fr.Record(flight.KindReplicate, sp.Now(), vtime.Since(sp.Now(), t0), msgID, len(pkt.data), outNet)
				st.replicatedPkts++
				st.replicatedBytes += int64(len(pkt.data))
				m.Add("madgo_mcast_replicated_packets_total", gwLabels, 1)
				m.Add("madgo_mcast_replicated_bytes_total", gwLabels, float64(len(pkt.data)))
				t0 = sp.Now()
				sp.Sleep(host.CPU.SwapOverhead)
				tr.Record(sendActor, "swap", 0, t0, sp.Now())
				m.ObserveDuration("madgo_gateway_swap_seconds", gwLabels, vtime.Since(sp.Now(), t0))
				eom := pkt.eom
				recycle(sp, pkt)
				if eom {
					return
				}
			}
		})
	}

	for {
		t0 := p.Now()
		buf, _ := r.free.Recv(p)
		if wait := vtime.Since(p.Now(), t0); wait > 0 {
			g.stalls++
			tr.Record(recvActor, "stall", 0, t0, p.Now())
			m.ObserveDuration("madgo_gateway_stall_seconds", gwLabels, wait)
			fr.Record(flight.KindStall, p.Now(), wait, msgID, 0, inNet)
		}
		t0 = p.Now()
		meta, n := in.RecvInto(p, buf)
		if len(meta.Blocks) == 0 {
			panic("fwd: protocol error: bare terminator on a multicast stream at " + g.name)
		}
		data := buf[:n]
		tr.Record(recvActor, "recv", n, t0, p.Now())
		fr.Record(flight.KindRecv, p.Now(), vtime.Since(p.Now(), t0), msgID, n, inNet)
		g.packets++
		g.bytes += int64(n)
		m.Add("madgo_gateway_relayed_packets_total", gwLabels, 1)
		m.Add("madgo_gateway_relayed_bytes_total", gwLabels, float64(n))
		t0 = p.Now()
		p.Sleep(host.CPU.SwapOverhead)
		tr.Record(recvActor, "swap", 0, t0, p.Now())
		m.ObserveDuration("madgo_gateway_swap_seconds", gwLabels, vtime.Since(p.Now(), t0))
		if local {
			// The ring buffer is recycled by the branch senders; the local
			// copy is the gateway-member's delivery cost.
			host.Memcpy(p, n)
			capture.frags = append(capture.frags, append([]byte(nil), data...))
			capture.descs = append(capture.descs, meta.Blocks[0])
		}
		pkt := &mcastPkt{data: data, desc: meta.Blocks, buf: buf, eom: meta.EOM, refs: len(branches)}
		if len(branches) == 0 {
			// Defensive: a frame whose every remaining destination is this
			// node. The planner never emits one (a lone local destination
			// travels the regular channel), but a recycled buffer and a
			// returned credit keep even that shape live.
			pkt.refs = 1
			recycle(p, pkt)
		} else {
			for _, b := range branches {
				b.q.Send(p, pkt)
			}
		}
		if meta.EOM {
			break
		}
	}
	for _, b := range branches {
		p.Join(b.proc)
	}
	// Drain the ring back into the pool so the next message restocks
	// cleanly whatever its mode.
	for {
		b, ok := r.free.TryRecv()
		if !ok {
			break
		}
		r.pool.put(b)
	}
	if local {
		g.mcastDeliverLocal(p, capture)
	}
}
