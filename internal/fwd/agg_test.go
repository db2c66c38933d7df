package fwd_test

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"madgo/internal/agg"
	"madgo/internal/fwd"
	"madgo/internal/mad"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

// Tests for the eager small-message path (§3.4.1): the compact framing that
// piggybacks the self-description header and the terminator on data
// fragments, and the cross-message coalescer that packs several sub-MTU
// messages into one aggregate frame. The flow-control ledger doubles as the
// wire-transfer meter here — the credit model charges exactly what crosses
// the wire, so CreditsSpent counts transfers toward the first gateway.

// TestEagerSmallMessageIsOneTransfer pins the headline elision: a sub-MTU
// message that costs the seed framing three wire transfers (header, one
// fragment, terminator) crosses in exactly one compact transfer under
// Config.Eager.
func TestEagerSmallMessageIsOneTransfer(t *testing.T) {
	send := func(eager bool) (int64, *world) {
		cfg := fwd.DefaultConfig()
		cfg.Eager = eager
		cfg.FlowControl = true
		w := build(t, paperHS(t), cfg)
		blocks := []block{{pattern(64, 3), mad.SendCheaper, mad.ReceiveCheaper}}
		got, fwded, _ := sendRecv(t, w, "a0", "b1", blocks)
		if !fwded || !bytes.Equal(got[0], blocks[0].data) {
			t.Fatal("small message corrupted or not forwarded")
		}
		return w.vc.FlowStats().CreditsSpent, w
	}
	seedSpent, _ := send(false)
	if seedSpent != 3 {
		t.Fatalf("seed framing spent %d transfers for one small message, want 3 (header, fragment, terminator)", seedSpent)
	}
	eagerSpent, w := send(true)
	if eagerSpent != 1 {
		t.Fatalf("eager framing spent %d transfers for one small message, want 1", eagerSpent)
	}
	if fs := w.vc.FlowStats(); fs.CreditsGranted != fs.CreditsSpent {
		t.Errorf("credit ledger unbalanced under eager framing: %+v", fs)
	}
}

// TestEagerEmptyMessage pins the degenerate case: an empty message travels
// as a single header-only compact transfer (the seed framing needs two —
// header and terminator).
func TestEagerEmptyMessage(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.Eager = true
	cfg.FlowControl = true
	w := build(t, paperHS(t), cfg)
	blocks := []block{{[]byte{}, mad.SendCheaper, mad.ReceiveCheaper}}
	_, fwded, from := sendRecv(t, w, "a0", "b1", blocks)
	if !fwded {
		t.Error("empty message not marked forwarded")
	}
	if from != w.vc.NodeRank("a0") {
		t.Errorf("From() = %d, want rank of a0", from)
	}
	if spent := w.vc.FlowStats().CreditsSpent; spent != 1 {
		t.Errorf("empty eager message spent %d transfers, want 1", spent)
	}
}

// TestEagerLargeMessageDeliversIntact checks the eager path degrades
// gracefully past the inline limit: a multi-fragment message still arrives
// byte-identical, with the header riding the first fragment and the
// terminator flag the last — F transfers instead of the seed's F+2.
func TestEagerLargeMessageDeliversIntact(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.Eager = true
	cfg.FlowControl = true
	w := build(t, paperHS(t), cfg)
	const n = 100_000
	blocks := []block{{pattern(n, 7), mad.SendCheaper, mad.ReceiveCheaper}}
	got, fwded, _ := sendRecv(t, w, "a0", "b1", blocks)
	if !fwded || !bytes.Equal(got[0], blocks[0].data) {
		t.Fatal("large eager message corrupted or not forwarded")
	}
	// The first fragment (a full MTU) is past the inline bound, so the
	// header travels alone; the terminator is still elided: F+1 transfers
	// against the seed's F+2.
	frags := int64((n + cfg.MTU - 1) / cfg.MTU)
	if spent := w.vc.FlowStats().CreditsSpent; spent != frags+1 {
		t.Errorf("large eager message spent %d transfers, want %d (header + one per fragment)", spent, frags+1)
	}
}

// TestAggCoalescesBurst drives a back-to-back burst of small messages from
// one sender and checks they cross as aggregate frames — one credit per
// frame, not per message — and still arrive in order, byte-identical.
func TestAggCoalescesBurst(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.Eager = true
	cfg.Aggregation = true
	cfg.FlowControl = true
	w := build(t, paperHS(t), cfg)
	const msgs = 12
	const size = 128
	w.sim.Spawn("burst-send", func(p *vtime.Proc) {
		for m := 0; m < msgs; m++ {
			px := w.vc.At("a0").BeginPacking(p, "b1")
			px.Pack(p, pattern(size, byte(m+1)), mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	w.sim.Spawn("burst-recv", func(p *vtime.Proc) {
		for m := 0; m < msgs; m++ {
			u := w.vc.At("b1").BeginUnpacking(p)
			got := make([]byte, size)
			u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			if !bytes.Equal(got, pattern(size, byte(m+1))) {
				t.Errorf("message %d out of order or corrupted", m)
			}
		}
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := w.vc.AggStats()
	if st.SubMessages != msgs {
		t.Errorf("coalesced %d sub-messages, want %d", st.SubMessages, msgs)
	}
	if st.Frames == 0 || st.Frames >= msgs {
		t.Errorf("burst crossed in %d frames for %d messages; aggregation did not batch", st.Frames, msgs)
	}
	if st.BypassMessages != 0 {
		t.Errorf("%d small messages bypassed the coalescer", st.BypassMessages)
	}
	// One credit per aggregate frame, however many sub-messages it packs.
	if spent := w.vc.FlowStats().CreditsSpent; spent != st.Frames {
		t.Errorf("burst spent %d transfers for %d frames; want one credit per frame", spent, st.Frames)
	}
}

// TestAggLargeMessageBypasses checks a message too large for an empty frame
// takes the ordinary path and is counted as a bypass, not silently dropped
// or fragmented through the coalescer.
func TestAggLargeMessageBypasses(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.Aggregation = true
	w := build(t, paperHS(t), cfg)
	blocks := []block{{pattern(100_000, 5), mad.SendCheaper, mad.ReceiveCheaper}}
	got, fwded, _ := sendRecv(t, w, "a0", "b1", blocks)
	if !fwded || !bytes.Equal(got[0], blocks[0].data) {
		t.Fatal("bypassed large message corrupted or not forwarded")
	}
	st := w.vc.AggStats()
	if st.BypassMessages != 1 {
		t.Errorf("BypassMessages = %d, want 1", st.BypassMessages)
	}
	if st.SubMessages != 0 {
		t.Errorf("large message was coalesced (%d sub-messages)", st.SubMessages)
	}
}

// TestAggOrderingAcrossBypass is the ordering contract between the two
// paths: small, large, small from one sender must arrive in exactly that
// order, which forces the coalescer to drain its pending frame before the
// large message overtakes it.
func TestAggOrderingAcrossBypass(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.Eager = true
	cfg.Aggregation = true
	w := build(t, paperHS(t), cfg)
	sizes := []int{200, 100_000, 300}
	w.sim.Spawn("mix-send", func(p *vtime.Proc) {
		for m, n := range sizes {
			px := w.vc.At("a0").BeginPacking(p, "b1")
			px.Pack(p, pattern(n, byte(m+1)), mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	w.sim.Spawn("mix-recv", func(p *vtime.Proc) {
		for m, n := range sizes {
			u := w.vc.At("b1").BeginUnpacking(p)
			got := make([]byte, n)
			u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			if !bytes.Equal(got, pattern(n, byte(m+1))) {
				t.Errorf("message %d (%d bytes) out of order or corrupted", m, n)
			}
		}
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := w.vc.AggStats()
	if st.OrderingFlushes == 0 {
		t.Error("large message overtook the pending frame: no ordering flush recorded")
	}
	if st.BypassMessages != 1 || st.SubMessages != 2 {
		t.Errorf("stats %+v, want 2 coalesced and 1 bypassed", st)
	}
}

// TestAggIdleFlushDeadline pins the latency bound: a lone small message is
// flushed by the idle deadline, not held for a frame that will never fill.
func TestAggIdleFlushDeadline(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.Aggregation = true
	cfg.AggIdleFlush = 500 * vtime.Microsecond
	w := build(t, paperHS(t), cfg)
	blocks := []block{{pattern(64, 9), mad.SendCheaper, mad.ReceiveCheaper}}
	got, _, _ := sendRecv(t, w, "a0", "b1", blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Fatal("idle-flushed message corrupted")
	}
	st := w.vc.AggStats()
	if st.IdleFlushes != 1 {
		t.Errorf("IdleFlushes = %d, want 1", st.IdleFlushes)
	}
	if now := vtime.Duration(w.sim.Now()); now < cfg.AggIdleFlush {
		t.Errorf("flush fired at %v, before the %v idle deadline", now, cfg.AggIdleFlush)
	}
}

// TestAggReliableBurst composes aggregation with the reliable engine: the
// whole frame is one ARQ sequence, and a large message interleaved into the
// burst keeps its place in the sender's order.
func TestAggReliableBurst(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.Reliable = true
	cfg.Aggregation = true
	w := build(t, paperHS(t), cfg)
	sizes := []int{100, 250, 60_000, 90, 400}
	w.sim.Spawn("rel-send", func(p *vtime.Proc) {
		for m, n := range sizes {
			px := w.vc.At("a0").BeginPacking(p, "b1")
			px.Pack(p, pattern(n, byte(m+1)), mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	w.sim.Spawn("rel-recv", func(p *vtime.Proc) {
		for m, n := range sizes {
			u := w.vc.At("b1").BeginUnpacking(p)
			got := make([]byte, n)
			u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			if !bytes.Equal(got, pattern(n, byte(m+1))) {
				t.Errorf("reliable message %d (%d bytes) out of order or corrupted", m, n)
			}
		}
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := w.vc.AggStats()
	if st.SubMessages != 4 || st.BypassMessages != 1 {
		t.Errorf("stats %+v, want 4 coalesced and 1 bypassed", st)
	}
}

// TestAggStripedFrame checks a frame that clears the striping threshold is
// carried by the multi-rail path and still decoalesces at the sink: the two
// subsystems compose instead of the aggregate flag being lost on a rail.
func TestAggStripedFrame(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.StripeK = 2
	cfg.StripeThreshold = 4 * 1024
	cfg.Aggregation = true
	tp := railsTopo([]string{"sci", "myrinet", "myrinet", "sci"}, []bool{true, true})
	w := buildQuietFaulty(tp, nil, cfg)
	const msgs = 8
	const size = 1400
	w.sim.Spawn("stripe-send", func(p *vtime.Proc) {
		for m := 0; m < msgs; m++ {
			px := w.vc.At("a").BeginPacking(p, "b")
			px.Pack(p, pattern(size, byte(m+1)), mad.SendCheaper, mad.ReceiveCheaper)
			px.EndPacking(p)
		}
	})
	w.sim.Spawn("stripe-recv", func(p *vtime.Proc) {
		for m := 0; m < msgs; m++ {
			u := w.vc.At("b").BeginUnpacking(p)
			got := make([]byte, size)
			u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
			u.EndUnpacking(p)
			if !bytes.Equal(got, pattern(size, byte(m+1))) {
				t.Errorf("striped sub-message %d out of order or corrupted", m)
			}
		}
	})
	if err := w.sim.Run(); err != nil {
		t.Fatal(err)
	}
	st := w.vc.AggStats()
	if st.SubMessages != msgs {
		t.Errorf("coalesced %d sub-messages, want %d", st.SubMessages, msgs)
	}
	if w.vc.StripeStats().Messages == 0 {
		t.Error("aggregate frame above the stripe threshold was not striped")
	}
}

// TestAggDeliveryProperty is the composition property: for random mixes of
// small and large messages from one or two senders, across plain, reliable
// and striped transports, with aggregation, eager framing and flow control
// independently on or off, every message arrives byte-identical and in its
// sender's order, small messages coalesce exactly when aggregation is on,
// and the credit ledger balances at quiescence.
func TestAggDeliveryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		next := xorshift(seed)
		striped := next(2) == 0
		reliable := next(2) == 0
		aggOn := next(2) == 0
		eager := next(2) == 0
		flow := next(2) == 0

		cfg := fwd.DefaultConfig()
		cfg.Reliable = reliable
		cfg.Eager = eager
		cfg.Aggregation = aggOn
		if flow {
			cfg.FlowControl = true
			cfg.CreditWindow = 4 + int(next(12))
		}
		var tp *topo.Topology
		var senders []string
		var dst string
		if striped {
			cfg.StripeK = 2
			cfg.StripeThreshold = 8 * 1024
			tp = railsTopo([]string{"sci", "myrinet", "myrinet", "sci"}, []bool{true, true})
			senders, dst = []string{"a"}, "b"
		} else {
			tp = paperHS(t)
			senders, dst = []string{"a0", "a1"}, "b1"
		}
		w := buildQuietFaulty(tp, nil, cfg)

		// The coalescer admits a message while its lone sub-message entry
		// fits an empty frame: header + entry overhead + payload under the
		// path MTU minus the GTM header.
		limit := cfg.MTU - 20
		type planned struct {
			sizes []int
			seeds []byte
		}
		plan := make(map[string]*planned, len(senders))
		total, smalls, larges := 0, 0, 0
		for si, name := range senders {
			pl := &planned{}
			m := 1 + int(next(8))
			for mi := 0; mi < m; mi++ {
				size := 1 + int(next(2048))
				if next(4) == 0 {
					size = 40_000 + int(next(80_000)) // never fits an empty frame
				}
				if agg.HeaderLen+agg.SubSizeParts(1, size) <= limit {
					smalls++
				} else {
					larges++
				}
				pl.sizes = append(pl.sizes, size)
				pl.seeds = append(pl.seeds, byte(si*101+mi*17+1))
			}
			plan[name] = pl
			total += m
		}

		for _, name := range senders {
			name := name
			pl := plan[name]
			w.sim.Spawn("prop-send:"+name, func(p *vtime.Proc) {
				for mi, size := range pl.sizes {
					px := w.vc.At(name).BeginPacking(p, dst)
					px.Pack(p, pattern(size, pl.seeds[mi]), mad.SendCheaper, mad.ReceiveCheaper)
					px.EndPacking(p)
				}
			})
		}
		okDelivery := true
		received := make(map[string]int, len(senders))
		w.sim.Spawn("prop-recv:"+dst, func(p *vtime.Proc) {
			for i := 0; i < total; i++ {
				u := w.vc.At(dst).BeginUnpacking(p)
				from := w.sess.Node(u.From()).Name
				pl := plan[from]
				if pl == nil || received[from] >= len(pl.sizes) {
					okDelivery = false
					t.Logf("seed %d: unexpected message from %s", seed, from)
					return
				}
				mi := received[from]
				got := make([]byte, pl.sizes[mi])
				u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
				u.EndUnpacking(p)
				if !bytes.Equal(got, pattern(pl.sizes[mi], pl.seeds[mi])) {
					okDelivery = false
					t.Logf("seed %d: message %d from %s out of order or corrupted", seed, mi, from)
					return
				}
				received[from]++
			}
		})
		cell := fmt.Sprintf("striped %v rel %v agg %v eager %v flow %v smalls %d larges %d",
			striped, reliable, aggOn, eager, flow, smalls, larges)
		if err := w.sim.Run(); err != nil {
			t.Logf("seed %d (%s): %v", seed, cell, err)
			return false
		}
		if !okDelivery {
			t.Logf("seed %d (%s): delivery check failed", seed, cell)
			return false
		}
		for name, pl := range plan {
			if received[name] != len(pl.sizes) {
				t.Logf("seed %d (%s): sender %s delivered %d of %d", seed, cell, name, received[name], len(pl.sizes))
				return false
			}
		}
		st := w.vc.AggStats()
		if aggOn {
			if int(st.SubMessages) != smalls || int(st.BypassMessages) != larges {
				t.Logf("seed %d (%s): stats %+v, want %d coalesced / %d bypassed",
					seed, cell, st, smalls, larges)
				return false
			}
		} else if st.SubMessages != 0 || st.Frames != 0 {
			t.Logf("seed %d (%s): aggregation off but stats %+v", seed, cell, st)
			return false
		}
		if flow && !reliable {
			if fs := w.vc.FlowStats(); fs.CreditsGranted != fs.CreditsSpent {
				t.Logf("seed %d (%s): credit ledger unbalanced %+v", seed, cell, fs)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestAggIncastWithManySenders reruns the 64-sender incast wall cell with
// the eager+aggregation path armed: the c1 contention gate must hold with
// coalescing in the loop.
func TestAggIncastWithManySenders(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.Eager = true
	cfg.Aggregation = true
	cfg.FlowControl = true
	cfg.CreditWindow = 8
	runWall(t, wallCase{name: "star-64-agg", topo: starTopo, senders: 64, cfg: cfg})
}

// TestAggSpillSendSaferCopiesOnce is the regression test for a replayed
// SendSafer block. The coalescer snapshots such a block when it is packed,
// so the spill onto the eager stream must send those already-private bytes
// without snapshotting (and charging Memcpy for) them a second time: one
// 64 KB forwarded SendSafer message under Eager+Aggregation copies exactly
// as many bytes as under Eager alone. The wire descriptor still says
// SendSafer, so the receiver's mirror check is unchanged. A replay onto a
// direct route is not covered here and keeps its copy: there the mad BMM
// owns the SendSafer copy, as for any plain message.
func TestAggSpillSendSaferCopiesOnce(t *testing.T) {
	copied := func(aggregate bool) int64 {
		cfg := fwd.DefaultConfig()
		cfg.Eager = true
		cfg.Aggregation = aggregate
		w := build(t, paperHS(t), cfg)
		blocks := []block{{pattern(64*1024, 4), mad.SendSafer, mad.ReceiveCheaper}}
		got, fwded, _ := sendRecv(t, w, "a0", "b1", blocks)
		if !fwded || !bytes.Equal(got[0], blocks[0].data) {
			t.Fatal("SendSafer message corrupted or not forwarded")
		}
		if aggregate && w.vc.AggStats().BypassMessages != 1 {
			t.Fatalf("64 KB message did not spill past the coalescer: %+v", w.vc.AggStats())
		}
		_, n := w.sess.Copies()
		return n
	}
	eager, spilled := copied(false), copied(true)
	if spilled != eager {
		t.Errorf("spilled SendSafer message copied %d bytes, eager alone %d: the replay snapshotted the block again",
			spilled, eager)
	}
}
