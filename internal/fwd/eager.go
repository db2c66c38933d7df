package fwd

import (
	"fmt"

	"madgo/internal/mad"
	"madgo/internal/vtime"
)

// The eager fast path (compact GTM framing) attacks the fixed ~40 µs
// per-wire-transfer software overhead measured in §3.4.1: the seed GTM
// framing spends F+2 transfers per message (self-description header, F
// fragments, empty terminator), so a 64-byte message pays three full
// per-transfer overheads. Compact framing elides both bracketing
// transfers:
//
//   - the header piggybacks on the first data fragment (one contiguous
//     [header|fragment] payload, kept split by the transfer's two block
//     descriptors), and
//   - the terminator collapses into the EOM flag of the last fragment's
//     transfer metadata — no empty trailing transfer.
//
// A message that fits one fragment therefore costs ONE wire transfer
// instead of three, and an F-fragment message costs F (or F+1 when the
// first fragment is too large to share a transfer with the header)
// instead of F+2. Gateways relay the compact frames obliviously
// (gateway.go, forwardEager), and flow control charges the true transfer
// count because every Send below is preceded by exactly one flowSpend.

// eagerInlineMax bounds the fragment size that may share a wire transfer
// with the self-description header. Beyond a few KB the extra copy into
// the combined frame costs more than the one transfer it saves, so large
// first fragments fall back to a separate header transfer (still saving
// the terminator).
const eagerInlineMax = 4096

// eagerPacking is the sender side of the compact framing. Unlike
// gtmPacking it cannot emit a fragment the moment Pack stages it: whether
// a fragment is the *last* one — and so carries the EOM flag — is only
// known when the next fragment or EndPacking arrives. It therefore keeps
// exactly one fragment staged and flushes it one step behind.
type eagerPacking struct {
	vc       *VirtualChannel
	node     *mad.Node
	link     *mad.Link
	mtu      int
	id       uint64
	finalDst mad.Rank

	started bool // header already on the wire
	staged  bool // one fragment awaiting its EOM verdict
	sdata   []byte
	sdesc   mad.BlockDesc
}

func newEagerPacking(p *vtime.Proc, vc *VirtualChannel, node *mad.Node, link *mad.Link, finalDst mad.Rank, id uint64) *eagerPacking {
	mtu := vc.PathMTU(node.Name, vc.sess.Node(finalDst).Name)
	g := &eagerPacking{vc: vc, node: node, link: link, mtu: mtu, id: id, finalDst: finalDst}
	// Acquire only — the header is withheld until the first fragment (or
	// EndPacking) so it can piggyback.
	link.Acquire(p)
	return g
}

func (g *eagerPacking) pack(p *vtime.Proc, data []byte, s mad.SendMode, r mad.RecvMode) {
	if s == mad.SendSafer {
		// Same contract as the GTM: honouring SendSafer needs an immediate
		// snapshot. All other modes are held by reference until the
		// fragment flushes (at the next Pack or at EndPacking), which
		// SendCheaper/SendLater permit.
		data = g.vc.snapshot(p, g.node, g.id, data)
	}
	g.stage(p, data, s, r)
}

func (g *eagerPacking) replay(p *vtime.Proc, blocks []packedBlock) {
	for _, b := range blocks {
		g.stage(p, b.data, b.s, b.r)
	}
}

// stage fragments one block the sender no longer touches, keeping its last
// fragment staged for its EOM verdict.
func (g *eagerPacking) stage(p *vtime.Proc, data []byte, s mad.SendMode, r mad.RecvMode) {
	mad.ForEachFragment(len(data), g.mtu, func(off, n int) {
		g.flushStaged(p, false)
		g.sdata = data[off : off+n]
		g.sdesc = mad.BlockDesc{Size: n, S: s, R: r}
		g.staged = true
	})
}

// flushStaged puts the staged fragment on the wire, as the compact
// [header|fragment] first transfer when possible. last marks the
// fragment as the message terminator (EOM piggybacking).
func (g *eagerPacking) flushStaged(p *vtime.Proc, last bool) {
	if !g.staged {
		return
	}
	g.staged = false
	net := g.link.Channel.Network().Name
	if !g.started {
		g.started = true
		if len(g.sdata) <= eagerInlineMax && gtmHeaderLen+len(g.sdata) <= g.mtu {
			// Header + first fragment in one transfer. Building the
			// contiguous frame copies the fragment once — the price of
			// eliding a whole transfer.
			g.node.Host.Memcpy(p, len(g.sdata))
			g.vc.flowSpend(p, g.link.Dst.Name, g.node.Name, g.id)
			g.link.Send(p, mad.TxMeta{
				SOM:    true,
				EOM:    last,
				Kind:   mad.KindEager,
				Blocks: []mad.BlockDesc{gtmHeaderDesc[0], g.sdesc},
			}, encodeGTMCompact(g.node.Rank, g.finalDst, g.mtu, g.id, g.sdata))
			if m := g.vc.metrics(); m != nil {
				m.RecordHop(g.id, p.Now(), g.node.Name, "hop",
					fmt.Sprintf("%s -> %s via %s (compact)", g.node.Name, g.link.Dst.Name, net), len(g.sdata))
			}
			g.sdata = nil
			return
		}
		// First fragment too large to share a transfer: header goes
		// alone, as in the seed framing. The terminator is still elided.
		g.vc.flowSpend(p, g.link.Dst.Name, g.node.Name, g.id)
		g.link.Send(p, mad.TxMeta{SOM: true, Kind: mad.KindEager, Blocks: gtmHeaderDesc},
			encodeGTMHeader(g.node.Rank, g.finalDst, g.mtu, g.id))
	}
	g.vc.flowSpend(p, g.link.Dst.Name, g.node.Name, g.id)
	g.link.Send(p, mad.TxMeta{
		EOM:    last,
		Kind:   mad.KindEager,
		Blocks: []mad.BlockDesc{g.sdesc},
	}, g.sdata)
	if m := g.vc.metrics(); m != nil {
		m.RecordHop(g.id, p.Now(), g.node.Name, "hop",
			fmt.Sprintf("%s -> %s via %s", g.node.Name, g.link.Dst.Name, net), len(g.sdata))
	}
	g.sdata = nil
}

func (g *eagerPacking) end(p *vtime.Proc) {
	switch {
	case g.staged:
		// The staged fragment is the last one: it carries the terminator.
		g.flushStaged(p, true)
	case !g.started:
		// Message with no packed blocks at all: the header itself is the
		// terminator — still one single wire transfer.
		g.vc.flowSpend(p, g.link.Dst.Name, g.node.Name, g.id)
		g.link.Send(p, mad.TxMeta{SOM: true, EOM: true, Kind: mad.KindEager, Blocks: gtmHeaderDesc},
			encodeGTMHeader(g.node.Rank, g.finalDst, g.mtu, g.id))
	}
	g.link.Release(p)
}

// eagerUnpacking is the receiver side of the compact framing, used when
// the arrival note says KindEager. The first transfer is self-describing
// by shape: two blocks mean the first fragment rode along with the header
// and is parked until the application asks for it; one block means a bare
// header (large first fragment, or an empty message when EOM is set).
type eagerUnpacking struct {
	vc   *VirtualChannel
	node *mad.Node
	link *mad.Link
	mtu  int
	from mad.Rank
	id   uint64
	got  int

	pending    []byte // piggybacked first fragment, not yet unpacked
	pdesc      mad.BlockDesc
	hasPending bool
	eomSeen    bool
}

func newEagerUnpacking(p *vtime.Proc, vc *VirtualChannel, node *mad.Node, a *mad.Arrival) *eagerUnpacking {
	link := a.Link
	link.AcquireRecv(p)
	meta, slot := link.Recv(p)
	if !meta.SOM || meta.Kind != mad.KindEager {
		panic("fwd: eager unpacking of a message without a compact header")
	}
	if len(meta.Blocks) < 1 || len(meta.Blocks) > 2 || meta.Blocks[0].Size != gtmHeaderLen {
		panic("fwd: protocol error: malformed compact first transfer at " + node.Name)
	}
	src, dst, mtu, id, frag, ok := decodeGTMCompact(slot)
	if !ok {
		panic("fwd: malformed compact header delivered to " + node.Name)
	}
	if dst != node.Rank {
		panic(fmt.Sprintf("fwd: misrouted message: %s received a compact message for rank %d", node.Name, dst))
	}
	g := &eagerUnpacking{vc: vc, node: node, link: link, mtu: mtu, from: src, id: id, eomSeen: meta.EOM}
	if len(meta.Blocks) == 2 {
		if meta.Blocks[1].Size != len(frag) {
			panic("fwd: protocol error: compact fragment length disagrees with its descriptor")
		}
		g.pending = frag
		g.pdesc = meta.Blocks[1]
		g.hasPending = true
	} else if len(frag) != 0 {
		panic("fwd: protocol error: header-only compact transfer with trailing bytes")
	}
	return g
}

func (g *eagerUnpacking) unpack(p *vtime.Proc, dst []byte, s mad.SendMode, r mad.RecvMode) {
	mad.ForEachFragment(len(dst), g.mtu, func(off, n int) {
		if g.hasPending {
			d := g.pdesc
			if d.S != s || d.R != r || d.Size != n {
				panic(fmt.Sprintf("fwd: protocol error: packed %v, unpacked {%dB %v %v}", d, n, s, r))
			}
			// The piggybacked fragment landed glued to the header, so
			// handing it to the application is one real copy.
			g.node.Host.Memcpy(p, n)
			copy(dst[off:off+n], g.pending)
			g.pending = nil
			g.hasPending = false
			g.got += n
			return
		}
		if g.eomSeen {
			panic("fwd: protocol error: blocks expected after the compact terminator")
		}
		meta, got := g.link.RecvInto(p, dst[off:off+n])
		if len(meta.Blocks) != 1 {
			panic("fwd: protocol error: compact packet without exactly one block")
		}
		d := meta.Blocks[0]
		if d.S != s || d.R != r || d.Size != n || got != n {
			panic(fmt.Sprintf("fwd: protocol error: packed %v, unpacked {%dB %v %v}", d, n, s, r))
		}
		g.eomSeen = meta.EOM
		g.got += got
	})
}

func (g *eagerUnpacking) end(p *vtime.Proc) {
	if g.hasPending {
		panic("fwd: protocol error: compact message ended with an unconsumed fragment")
	}
	if !g.eomSeen {
		panic("fwd: protocol error: compact message ended before its terminator")
	}
	g.link.ReleaseRecv(p)
	g.vc.metrics().RecordHop(g.id, p.Now(), g.node.Name, "deliver",
		"reassembled at "+g.node.Name, g.got)
}
