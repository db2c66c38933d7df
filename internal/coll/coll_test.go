package coll_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"madgo/internal/coll"
	"madgo/internal/drivers/bip"
	"madgo/internal/drivers/sisci"
	"madgo/internal/fwd"
	"madgo/internal/hw"
	"madgo/internal/mad"
	"madgo/internal/topo"
	"madgo/internal/vtime"
)

// testbed builds the paper's two-cluster topology and returns the virtual
// channel plus the member list spanning both clusters.
func testbed(t *testing.T) (*vtime.Sim, *fwd.VirtualChannel, []string) {
	t.Helper()
	tp, err := topo.NewBuilder().
		Network("sci0", "sci").
		Network("myri0", "myrinet").
		Node("a0", "sci0").Node("a1", "sci0").Node("a2", "sci0").
		Node("gw", "sci0", "myri0").
		Node("b0", "myri0").Node("b1", "myri0").Node("b2", "myri0").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	sim := vtime.New()
	pl := hw.NewPlatform(sim)
	sess := mad.NewSession(pl)
	sci, myri := sisci.New(), bip.New()
	bindings := map[string]fwd.Binding{
		"sci0":  {Net: pl.NewNetwork("sci0", sci.NIC()), Drv: sci},
		"myri0": {Net: pl.NewNetwork("myri0", myri.NIC()), Drv: myri},
	}
	vc, err := fwd.Build(sess, tp, bindings, fwd.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sim, vc, []string{"a0", "a1", "a2", "gw", "b0", "b1", "b2"}
}

// runAll spawns fn on every member and runs the simulation.
func runAll(t *testing.T, sim *vtime.Sim, vc *fwd.VirtualChannel, members []string,
	fn func(p *vtime.Proc, c *coll.Comm, idx int)) {
	t.Helper()
	for i, m := range members {
		i, m := i, m
		sim.Spawn("member:"+m, func(p *vtime.Proc) {
			c, err := coll.New(vc, members, m)
			if err != nil {
				t.Error(err)
				return
			}
			fn(p, c, i)
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCommValidation(t *testing.T) {
	_, vc, members := testbed(t)
	if _, err := coll.New(vc, members[:1], members[0]); err == nil {
		t.Error("expected error for tiny communicator")
	}
	if _, err := coll.New(vc, members, "nobody"); err == nil {
		t.Error("expected error for non-member self")
	}
	if _, err := coll.New(vc, []string{"a0", "a0"}, "a0"); err == nil {
		t.Error("expected error for duplicate member")
	}
	c, err := coll.New(vc, members, "gw")
	if err != nil {
		t.Fatal(err)
	}
	if c.Rank() != 3 || c.Size() != len(members) {
		t.Errorf("rank=%d size=%d", c.Rank(), c.Size())
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	sim, vc, members := testbed(t)
	var entered, released [7]vtime.Time
	runAll(t, sim, vc, members, func(p *vtime.Proc, c *coll.Comm, i int) {
		// Stagger arrivals: the barrier must hold everyone until the
		// last (i=6) arrives.
		p.Sleep(vtime.Duration(i) * vtime.Millisecond)
		entered[i] = p.Now()
		c.Barrier(p)
		released[i] = p.Now()
	})
	latest := entered[0]
	for _, e := range entered {
		if e > latest {
			latest = e
		}
	}
	for i, r := range released {
		if r < latest {
			t.Errorf("member %d released at %v before the last entry at %v", i, r, latest)
		}
	}
}

func TestBroadcastFromEveryRoot(t *testing.T) {
	for root := 0; root < 7; root++ {
		root := root
		t.Run(fmt.Sprintf("root=%d", root), func(t *testing.T) {
			sim, vc, members := testbed(t)
			payload := make([]byte, 20_000)
			for i := range payload {
				payload[i] = byte(i*13 + root)
			}
			runAll(t, sim, vc, members, func(p *vtime.Proc, c *coll.Comm, i int) {
				buf := make([]byte, len(payload))
				if i == root {
					copy(buf, payload)
				}
				c.Broadcast(p, root, buf)
				if !bytes.Equal(buf, payload) {
					t.Errorf("member %d got a corrupted broadcast", i)
				}
			})
		})
	}
}

// TestBroadcastBufferMismatchPanics: a member whose buffer length differs
// from the root's gets the "buffers disagree" panic as soon as the length
// block arrives, before any payload byte lands in its buffer.
func TestBroadcastBufferMismatchPanics(t *testing.T) {
	sim, vc, members := testbed(t)
	short := bytes.Repeat([]byte{0xEE}, 10)
	for i, m := range members {
		i, m := i, m
		sim.Spawn("member:"+m, func(p *vtime.Proc) {
			c, err := coll.New(vc, members, m)
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 64)
			if i == 5 {
				buf = short
			}
			c.Broadcast(p, 0, buf)
		})
	}
	defer func() {
		r := recover()
		if msg := fmt.Sprint(r); !strings.Contains(msg, "coll: broadcast buffers disagree (64 vs 10 bytes)") {
			t.Fatalf("panic = %v, want the buffers-disagree panic", r)
		}
		if !bytes.Equal(short, bytes.Repeat([]byte{0xEE}, 10)) {
			t.Fatalf("mismatched buffer was written: %x", short)
		}
	}()
	_ = sim.Run()
}

func TestReduceSumOnRoot(t *testing.T) {
	sim, vc, members := testbed(t)
	n := len(members)
	runAll(t, sim, vc, members, func(p *vtime.Proc, c *coll.Comm, i int) {
		in := []float64{float64(i), 1, float64(i * i)}
		out := c.Reduce(p, 0, in, coll.Sum)
		if i != 0 {
			if out != nil {
				t.Errorf("member %d got a reduce result", i)
			}
			return
		}
		wantSum := 0.0
		wantSq := 0.0
		for k := 0; k < n; k++ {
			wantSum += float64(k)
			wantSq += float64(k * k)
		}
		if out[0] != wantSum || out[1] != float64(n) || out[2] != wantSq {
			t.Errorf("reduce = %v", out)
		}
	})
}

func TestAllReduceOps(t *testing.T) {
	cases := []struct {
		name string
		op   coll.Op
		want func(vals []float64) float64
	}{
		{"sum", coll.Sum, func(v []float64) float64 {
			s := 0.0
			for _, x := range v {
				s += x
			}
			return s
		}},
		{"max", coll.Max, func(v []float64) float64 {
			m := math.Inf(-1)
			for _, x := range v {
				m = math.Max(m, x)
			}
			return m
		}},
		{"min", coll.Min, func(v []float64) float64 {
			m := math.Inf(1)
			for _, x := range v {
				m = math.Min(m, x)
			}
			return m
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			sim, vc, members := testbed(t)
			vals := []float64{3.5, -2, 7, 0.25, -9, 4, 11}
			want := tc.want(vals)
			runAll(t, sim, vc, members, func(p *vtime.Proc, c *coll.Comm, i int) {
				out := c.AllReduce(p, []float64{vals[i]}, tc.op)
				if len(out) != 1 || out[0] != want {
					t.Errorf("member %d allreduce = %v, want %v", i, out, want)
				}
			})
		})
	}
}

func TestGatherVariableLengths(t *testing.T) {
	sim, vc, members := testbed(t)
	runAll(t, sim, vc, members, func(p *vtime.Proc, c *coll.Comm, i int) {
		mine := bytes.Repeat([]byte{byte(i)}, i+1)
		out := c.Gather(p, 2, mine)
		if i != 2 {
			if out != nil {
				t.Errorf("member %d got gather output", i)
			}
			return
		}
		for k, buf := range out {
			want := bytes.Repeat([]byte{byte(k)}, k+1)
			if !bytes.Equal(buf, want) {
				t.Errorf("gather[%d] = %v", k, buf)
			}
		}
	})
}

func TestConsecutiveCollectives(t *testing.T) {
	// A realistic program: barrier, broadcast of parameters, local work,
	// allreduce, gather of summaries — all in sequence.
	sim, vc, members := testbed(t)
	params := []byte("iterations=3")
	runAll(t, sim, vc, members, func(p *vtime.Proc, c *coll.Comm, i int) {
		c.Barrier(p)
		buf := make([]byte, len(params))
		if i == 0 {
			copy(buf, params)
		}
		c.Broadcast(p, 0, buf)
		if !bytes.Equal(buf, params) {
			t.Errorf("member %d params corrupted", i)
		}
		for iter := 0; iter < 3; iter++ {
			local := []float64{float64(i + iter)}
			global := c.AllReduce(p, local, coll.Sum)
			want := 0.0
			for k := 0; k < c.Size(); k++ {
				want += float64(k + iter)
			}
			if global[0] != want {
				t.Errorf("member %d iter %d: %v != %v", i, iter, global[0], want)
			}
		}
		c.Gather(p, 0, []byte{byte(i)})
	})
}

// Property: allreduce(sum) over random vectors equals the local sum of all
// inputs, element-wise, regardless of which cluster each value lives in.
func TestAllReduceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRng(seed)
		sim, vc, members := testbed(t)
		width := 1 + int(rng()%16)
		inputs := make([][]float64, len(members))
		want := make([]float64, width)
		for i := range inputs {
			inputs[i] = make([]float64, width)
			for j := range inputs[i] {
				inputs[i][j] = float64(int64(rng()%2000) - 1000)
				want[j] += inputs[i][j]
			}
		}
		ok := true
		for i, m := range members {
			i, m := i, m
			sim.Spawn("m:"+m, func(p *vtime.Proc) {
				c, err := coll.New(vc, members, m)
				if err != nil {
					ok = false
					return
				}
				out := c.AllReduce(p, inputs[i], coll.Sum)
				for j := range want {
					if math.Abs(out[j]-want[j]) > 1e-9 {
						ok = false
					}
				}
			})
		}
		if err := sim.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// newRng is a tiny deterministic generator so the property test does not
// depend on math/rand ordering.
func newRng(seed int64) func() uint64 {
	s := uint64(seed)*2654435761 + 1
	return func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
}
