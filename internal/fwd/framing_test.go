package fwd

import (
	"bytes"
	"fmt"
	"testing"

	"madgo/internal/drivers/bip"
	"madgo/internal/drivers/sisci"
	"madgo/internal/hw"
	"madgo/internal/mad"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

// White-box tests of the send-path decision: each message's framing is
// chosen once, by BeginPacking and the single-rail chooser it shares with
// every buffered replay. They read the module the receiver opened straight
// off the Unpacking, so a path that drifts from the others shows up as a
// different module, not only as a different virtual time.

// framingChannel builds a virtual channel over tp, binding SCI networks to
// the SISCI driver and Myrinet networks to BIP.
func framingChannel(t *testing.T, tp *topo.Topology, cfg Config) (*vtime.Sim, *VirtualChannel) {
	t.Helper()
	sim := vtime.New()
	pl := hw.NewPlatform(sim)
	sess := mad.NewSession(pl)
	bindings := make(map[string]Binding)
	for _, nw := range tp.Networks() {
		switch nw.Protocol {
		case "sci":
			drv := sisci.New()
			bindings[nw.Name] = Binding{Net: drv.NewNetwork(pl, nw.Name), Drv: drv}
		case "myrinet":
			drv := bip.New()
			bindings[nw.Name] = Binding{Net: drv.NewNetwork(pl, nw.Name), Drv: drv}
		default:
			t.Fatalf("no driver for %s", nw.Protocol)
		}
	}
	vc, err := Build(sess, tp, bindings, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim, vc
}

// framingTopo builds one of the three route shapes of the decision table:
// "direct" is a/b sharing two networks (two direct rails), "one-gw" is a–g–b
// across two networks (a single route through one gateway), and "two-gw" is
// a/g1/g2/b (two gateway-disjoint rails, each through its own gateway).
func framingTopo(t *testing.T, shape string) *topo.Topology {
	t.Helper()
	b := topo.NewBuilder()
	switch shape {
	case "direct":
		b.Network("myri0", "myrinet").Network("sci0", "sci").
			Node("a", "myri0", "sci0").Node("b", "myri0", "sci0")
	case "one-gw":
		b.Network("sci0", "sci").Network("myri0", "myrinet").
			Node("a", "sci0").Node("g", "sci0", "myri0").Node("b", "myri0")
	case "two-gw":
		b.Network("m1", "myrinet").Network("m2", "myrinet").
			Network("s1", "sci").Network("s2", "sci").
			Node("a", "m1", "s1").Node("g1", "m1", "m2").
			Node("g2", "s1", "s2").Node("b", "m2", "s2")
	default:
		t.Fatalf("unknown route shape %q", shape)
	}
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// openedAs names the receive module an Unpacking was opened with.
func openedAs(u *Unpacking) string {
	switch u.u.(type) {
	case plainUnpacking:
		return "plain"
	case *gtmUnpacking:
		return "gtm"
	case *eagerUnpacking:
		return "eager"
	case *aggUnpacking:
		return "agg"
	case *stripeUnpacking:
		return "stripe"
	case *relUnpacking:
		return "rel"
	case *mcastUnpacking:
		return "mcast"
	}
	return fmt.Sprintf("%T", u.u)
}

type framingBlock struct {
	data []byte
	s    mad.SendMode
	r    mad.RecvMode
}

// sendOne runs one a→b message of the given blocks and returns the module
// the receiver opened it with and the bytes it unpacked.
func sendOne(t *testing.T, sim *vtime.Sim, vc *VirtualChannel, blocks []framingBlock) (string, [][]byte) {
	t.Helper()
	sim.Spawn("send", func(p *vtime.Proc) {
		px := vc.At("a").BeginPacking(p, "b")
		for _, b := range blocks {
			px.Pack(p, b.data, b.s, b.r)
		}
		px.EndPacking(p)
	})
	var opened string
	got := make([][]byte, len(blocks))
	sim.Spawn("recv", func(p *vtime.Proc) {
		u := vc.At("b").BeginUnpacking(p)
		opened = openedAs(u)
		for i, b := range blocks {
			got[i] = make([]byte, len(b.data))
			u.Unpack(p, got[i], b.s, b.r)
		}
		u.EndUnpacking(p)
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	return opened, got
}

func framingPayload(n int, seed byte) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(i)*13 + seed
	}
	return d
}

// TestFramingDecisionTable pins the one framing decision per option set ×
// route shape × message size: which receive module the message opens as,
// and that it arrives byte-identical. Sizes straddle the default stripe
// threshold (16 KB); the 1 KB message also fits an aggregate frame, the
// 64 KB one outgrows it and spills. Each message is two blocks, the second
// SendSafer, so the buffered replays (spill, stripe fallback) carry a
// snapshotted block too.
func TestFramingDecisionTable(t *testing.T) {
	opts := []struct {
		name string
		set  func(*Config)
	}{
		{"defaults", func(*Config) {}},
		{"eager", func(c *Config) { c.Eager = true }},
		{"eager+agg", func(c *Config) { c.Eager, c.Aggregation = true, true }},
		{"stripe2", func(c *Config) { c.StripeK = 2 }},
		{"eager+stripe2", func(c *Config) { c.Eager, c.StripeK = true, 2 }},
		{"reliable", func(c *Config) { c.Reliable = true }},
		{"reliable+stripe2", func(c *Config) { c.Reliable, c.StripeK = true, 2 }},
	}
	// want[option set][route shape] = {module below threshold, above}.
	want := map[string]map[string][2]string{
		"defaults": {
			"direct": {"plain", "plain"}, "one-gw": {"gtm", "gtm"}, "two-gw": {"gtm", "gtm"}},
		"eager": {
			"direct": {"plain", "plain"}, "one-gw": {"eager", "eager"}, "two-gw": {"eager", "eager"}},
		"eager+agg": {
			"direct": {"plain", "plain"}, "one-gw": {"agg", "eager"}, "two-gw": {"agg", "eager"}},
		"stripe2": {
			"direct": {"plain", "stripe"}, "one-gw": {"gtm", "gtm"}, "two-gw": {"gtm", "stripe"}},
		"eager+stripe2": {
			"direct": {"plain", "stripe"}, "one-gw": {"eager", "eager"}, "two-gw": {"eager", "stripe"}},
		"reliable": {
			"direct": {"rel", "rel"}, "one-gw": {"rel", "rel"}, "two-gw": {"rel", "rel"}},
		"reliable+stripe2": {
			"direct": {"rel", "rel"}, "one-gw": {"rel", "rel"}, "two-gw": {"rel", "rel"}},
	}
	sizes := []int{1024, 64 * 1024}
	for _, o := range opts {
		for _, shape := range []string{"direct", "one-gw", "two-gw"} {
			for si, n := range sizes {
				name := fmt.Sprintf("%s/%s/%dB", o.name, shape, n)
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig()
					o.set(&cfg)
					sim, vc := framingChannel(t, framingTopo(t, shape), cfg)
					blocks := []framingBlock{
						{framingPayload(n-100, 3), mad.SendCheaper, mad.ReceiveCheaper},
						{framingPayload(100, 9), mad.SendSafer, mad.ReceiveCheaper},
					}
					opened, got := sendOne(t, sim, vc, blocks)
					if w := want[o.name][shape][si]; opened != w {
						t.Errorf("receiver opened the message as %s, want %s", opened, w)
					}
					for i, b := range blocks {
						if !bytes.Equal(got[i], b.data) {
							t.Errorf("block %d corrupted", i)
						}
					}
				})
			}
		}
	}
}

// TestStripeFallbackHonoursEager is the regression test for a striped pair
// below the stripe threshold: its fallback used to replay through the seed
// GTM framing whatever Config.Eager said, so a 1 KB forwarded message paid
// three wire transfers (header, fragment, terminator) instead of one
// compact transfer. It now opens as a compact eager message, and the flow
// credits toward the first gateway — which count wire transfers — show the
// single transfer.
func TestStripeFallbackHonoursEager(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Eager = true
	cfg.StripeK = 2
	cfg.FlowControl = true
	sim, vc := framingChannel(t, framingTopo(t, "two-gw"), cfg)
	if n := len(vc.stripeRoutes("a", "b")); n != 2 {
		t.Fatalf("a→b has %d rails, want 2", n)
	}
	blocks := []framingBlock{{framingPayload(1024, 5), mad.SendCheaper, mad.ReceiveCheaper}}
	opened, got := sendOne(t, sim, vc, blocks)
	if !bytes.Equal(got[0], blocks[0].data) {
		t.Fatal("payload corrupted")
	}
	if opened != "eager" {
		t.Errorf("sub-threshold striped-pair message opened as %s, want eager", opened)
	}
	if spent := vc.FlowStats().CreditsSpent; spent != 1 {
		t.Errorf("sub-threshold striped-pair message spent %d transfers toward the gateway, want 1", spent)
	}
	if n := vc.StripeStats().Messages; n != 0 {
		t.Errorf("a 1 KB message was striped (%d)", n)
	}
}
