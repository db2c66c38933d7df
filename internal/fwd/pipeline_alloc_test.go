package fwd_test

import (
	"testing"

	"madgo/internal/fwd"
	"madgo/internal/mad"
	"madgo/internal/vtime"
)

// Steady-state relays must not touch the allocator: after the first message
// warms a ring's free list, every further message restocks from the pool
// (Gets keeps growing) without a single additional allocation (Misses stays
// at the warmup level). The copy-always ablation is the stress case — it
// runs both the staging-buffer pool and the per-packet stage pool.
func TestGatewayRelayWarmPoolNoNewAllocations(t *testing.T) {
	for _, zc := range []bool{true, false} {
		name := "zerocopy"
		if !zc {
			name = "copy-always"
		}
		t.Run(name, func(t *testing.T) {
			cfg := fwd.DefaultConfig()
			cfg.PipelineDepth = 4
			cfg.ZeroCopy = zc
			w := build(t, paperHS(t), cfg)
			gw := w.vc.Gateway("gw")
			payload := pattern(300_000, 7)

			relay := func() {
				got, fwded, _ := sendRecv(t, w, "b1", "a1",
					[]block{{payload, mad.SendCheaper, mad.ReceiveCheaper}})
				if !fwded {
					t.Fatal("message was not forwarded")
				}
				if len(got[0]) != len(payload) {
					t.Fatalf("short delivery: %d of %d", len(got[0]), len(payload))
				}
			}

			relay() // warmup: stocks the ring, pays the only misses
			warm := gw.PoolStats()
			if warm.Misses == 0 {
				t.Fatal("warmup produced no pool misses; the relay is not using the pools")
			}
			const extra = 5
			for i := 0; i < extra; i++ {
				relay()
			}
			after := gw.PoolStats()
			if after.Misses != warm.Misses {
				t.Fatalf("steady-state relays allocated: misses %d -> %d",
					warm.Misses, after.Misses)
			}
			if after.Gets <= warm.Gets {
				t.Fatalf("pool not exercised after warmup: gets %d -> %d",
					warm.Gets, after.Gets)
			}
			if after.Gets != after.Puts {
				t.Fatalf("ring leaked staging buffers: gets %d != puts %d",
					after.Gets, after.Puts)
			}
		})
	}
}

// forwardedSendAllocs is the measured allocation count of one forwarded
// 1 KB eager message, as TestForwardedSendAllocs drives it.
const forwardedSendAllocs = 57

// TestForwardedSendAllocs pins the host allocations of one forwarded 1 KB
// eager message, from BeginPacking through EndUnpacking, so the per-message
// dispatch (one packer and one unpacker interface value chosen at Begin*)
// is shown to cost no allocation. The count includes the harness: the two
// processes spawned per message and the simulation run that drives them.
func TestForwardedSendAllocs(t *testing.T) {
	cfg := fwd.DefaultConfig()
	cfg.Eager = true
	w := build(t, paperHS(t), cfg)
	payload := pattern(1024, 5)
	got := make([]byte, len(payload))
	send := func(p *vtime.Proc) {
		px := w.vc.At("a0").BeginPacking(p, "b1")
		px.Pack(p, payload, mad.SendCheaper, mad.ReceiveCheaper)
		px.EndPacking(p)
	}
	recv := func(p *vtime.Proc) {
		u := w.vc.At("b1").BeginUnpacking(p)
		u.Unpack(p, got, mad.SendCheaper, mad.ReceiveCheaper)
		u.EndUnpacking(p)
	}
	one := func() {
		w.sim.Spawn("send", send)
		w.sim.Spawn("recv", recv)
		if err := w.sim.Run(); err != nil {
			t.Fatal(err)
		}
	}
	one() // warm the links, relay rings and egress daemons
	if n := testing.AllocsPerRun(100, one); n > forwardedSendAllocs {
		t.Errorf("one forwarded 1 KB eager message allocates %.0f times, want <= %d", n, forwardedSendAllocs)
	}
	if string(got) != string(payload) {
		t.Error("payload corrupted")
	}
}
