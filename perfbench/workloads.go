package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	madeleine "madgo"
)

// mixedRate is mixed-production's fixed offered load in payload bytes per
// virtual second, summed over its eight senders. WithProduction() delivers
// about 31 MB/s on this mix when overloaded, but its median latency is
// already ten times the light-load value at 20 MB/s; 14 MB/s is 70% of that
// knee, loaded enough to queue behind elephants without a growing backlog.
const mixedRate = 14e6

// poolSize is the length of the seeded payload pool every message slices
// its content from: larger than the largest message, so payloads start at
// many different offsets.
const poolSize = 4 << 20

// hdrLen is the length of the header block every point-to-point message
// carries ahead of its payload: message index, payload length and the
// library's message id.
const hdrLen = 16

// msg is one generated message.
type msg struct {
	flow     int // sender index, the unit of Jain's index
	src, dst string
	size     int
	off      int                // where the payload starts in the pool
	due      madeleine.Time     // open loop: when it must be sent
	think    madeleine.Duration // bcast-gather: member delay before replying
	delivery bool               // bcast-gather: one receiver of a broadcast
}

// inputs is everything a workload needs, generated from the seed before
// any timing starts.
type inputs struct {
	pool []byte
	msgs []msg
	// hdrs holds hdrLen bytes per message, filled at send time. Headers
	// are never reused, so no send path can see one rewritten while it
	// still holds the block.
	hdrs    []byte
	acks    []byte // one ack byte per message (paper-pingpong)
	members []string
	rounds  int
}

func (in *inputs) payload(i int) []byte {
	m := &in.msgs[i]
	return in.pool[m.off : m.off+m.size]
}

func (in *inputs) hdr(i int) []byte { return in.hdrs[i*hdrLen : (i+1)*hdrLen] }

// workload is one benchmark scenario: a topology, a facade preset and a
// traffic pattern.
type workload struct {
	name   string
	config string
	opts   func(seed int64) []madeleine.Option
	gen    func(r *rand.Rand, short bool) *inputs
	drive  func(x *rig)
	// episodes is how many independently seeded simulations one run pools
	// its virtual-clock metrics over: enough messages that p99 has
	// hundreds of samples beyond it and stays steady from seed to seed.
	episodes int
	// ringCap is the flight-recorder ring size of traced runs: room for
	// every event of the busiest node, so the budgets cover every message.
	ringCap int
	// jainFrom is the first flow Jain's index covers: bcast-gather leaves
	// out the root, whose broadcast stream is not a peer of the replies.
	jainFrom int
}

var workloads = []*workload{
	{
		// The paper's own experiment: both directions across the SCI/Myrinet
		// gateway, one message in flight each, sharing its PCI bus.
		name:   "paper-pingpong",
		config: paperConfig,
		opts: func(int64) []madeleine.Option {
			return []madeleine.Option{madeleine.WithPaperFidelity(),
				madeleine.WithRouteNetworks("sci0", "myri0")}
		},
		gen:      genPingpong,
		drive:    drivePingpong,
		episodes: 20,
		ringCap:  1 << 17,
	},
	{
		// Size-split open-loop traffic under loss with every subsystem on.
		name:   "mixed-production",
		config: paperConfig,
		opts: func(seed int64) []madeleine.Option {
			plan := madeleine.NewFaultPlan(seed).Drop("sci0", 0.001).Drop("myri0", 0.001)
			return []madeleine.Option{madeleine.WithProduction(),
				madeleine.WithRouteNetworks("sci0", "myri0"), madeleine.WithFaults(plan)}
		},
		gen:      genMixed,
		drive:    driveOpenLoop,
		episodes: 24,
		ringCap:  1 << 16,
	},
	{
		// Collective fan-out then 63-way incast over a 67-node chain.
		name:   "bcast-gather",
		config: chainConfig(4, 16),
		opts: func(int64) []madeleine.Option {
			return []madeleine.Option{madeleine.WithEagerSmallMessages(),
				madeleine.WithAggregation(), madeleine.WithFlowControl()}
		},
		gen:      genBcastGather,
		drive:    driveBcastGather,
		episodes: 24,
		ringCap:  1 << 13,
		jainFrom: 1,
	},
}

func lookup(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// paperConfig is PaperTestbed() in the topology language, so set-up time
// includes parsing it like any user configuration.
const paperConfig = `
network sci0 sci
network myri0 myrinet
network eth0 ethernet
node a0 sci0 eth0
node a1 sci0 eth0
node a2 sci0 eth0
node a3 sci0 eth0
node gw sci0 myri0 eth0
node b0 myri0 eth0
node b1 myri0 eth0
node b2 myri0 eth0
node b3 myri0 eth0
`

// chainConfig is a chain of clusters alternating SCI and Myrinet, each with
// per hosts h<c>_<i>, joined by one gateway g<c> between clusters c-1 and c.
func chainConfig(clusters, per int) string {
	var b strings.Builder
	for c := 0; c < clusters; c++ {
		proto := "sci"
		if c%2 == 1 {
			proto = "myrinet"
		}
		fmt.Fprintf(&b, "network c%d %s\n", c, proto)
	}
	for c := 0; c < clusters; c++ {
		for i := 0; i < per; i++ {
			fmt.Fprintf(&b, "node h%d_%d c%d\n", c, i, c)
		}
		if c > 0 {
			fmt.Fprintf(&b, "node g%d c%d c%d\n", c, c-1, c)
		}
	}
	return b.String()
}

// logUniform draws n sizes log-uniformly from [lo, hi], one from each of n
// equal strata of the log range, in seeded random order: every seed gets the
// same size distribution, so seeds move the order and the offsets, not the
// total bytes.
func logUniform(r *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	span := math.Log(float64(hi) / float64(lo))
	for k := range out {
		out[k] = int(float64(lo) * math.Exp(span*(float64(k)+r.Float64())/float64(n)))
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func newInputs(r *rand.Rand) *inputs {
	in := &inputs{pool: make([]byte, poolSize)}
	r.Read(in.pool)
	return in
}

func (in *inputs) add(r *rand.Rand, m msg) {
	m.off = r.Intn(len(in.pool) - m.size + 1)
	in.msgs = append(in.msgs, m)
}

// finish allocates the per-message header and ack bytes.
func (in *inputs) finish() *inputs {
	in.hdrs = make([]byte, hdrLen*len(in.msgs))
	in.acks = make([]byte, len(in.msgs))
	return in
}

func genPingpong(r *rand.Rand, short bool) *inputs {
	n := 600
	if short {
		n = 12
	}
	in := newInputs(r)
	for f, pair := range [][2]string{{"a0", "b0"}, {"b1", "a1"}} {
		for _, size := range logUniform(r, n, 1<<10, 1<<20) {
			in.add(r, msg{flow: f, src: pair[0], dst: pair[1], size: size})
		}
	}
	return in.finish()
}

func genMixed(r *rand.Rand, short bool) *inputs {
	n := 200 // per sender
	if short {
		n = 20
	}
	in := newInputs(r)
	flow := 0
	for _, side := range [][2]string{{"a", "b"}, {"b", "a"}} {
		for i := 0; i < 4; i++ {
			src, dst := fmt.Sprintf("%s%d", side[0], i), fmt.Sprintf("%s%d", side[1], i)
			elephants := n / 10
			sizes := append(logUniform(r, n-elephants, 64, 4<<10), logUniform(r, elephants, 64<<10, 512<<10)...)
			r.Shuffle(len(sizes), func(a, b int) { sizes[a], sizes[b] = sizes[b], sizes[a] })
			// Poisson arrivals, scaled so that this sender offers exactly
			// its share of mixedRate over the schedule.
			gaps := make([]float64, n)
			var gapSum float64
			total := 0
			for k := range gaps {
				gaps[k] = r.ExpFloat64()
				gapSum += gaps[k]
				total += sizes[k]
			}
			span := float64(total) / (mixedRate / 8) * float64(madeleine.Second)
			var at float64
			for k, size := range sizes {
				at += gaps[k] / gapSum * span
				in.add(r, msg{flow: flow, src: src, dst: dst, size: size, due: madeleine.Time(at)})
			}
			flow++
		}
	}
	return in.finish()
}

// Message layout of bcast-gather: per round, first the 63 broadcast
// deliveries (one per member), then the 63 replies.
func genBcastGather(r *rand.Rand, short bool) *inputs {
	rounds := 10
	if short {
		rounds = 2
	}
	in := newInputs(r)
	for c := 0; c < 4; c++ {
		for i := 0; i < 16; i++ {
			in.members = append(in.members, fmt.Sprintf("h%d_%d", c, i))
		}
	}
	in.rounds = rounds
	root := in.members[0]
	for rd := 0; rd < rounds; rd++ {
		off := r.Intn(len(in.pool) - 64<<10 + 1)
		for m := 1; m < len(in.members); m++ {
			in.msgs = append(in.msgs, msg{flow: 0, src: root, dst: in.members[m],
				size: 64 << 10, off: off, delivery: true})
		}
		for m := 1; m < len(in.members); m++ {
			in.add(r, msg{flow: m, src: in.members[m], dst: root, size: 4 << 10,
				think: madeleine.Duration(r.Int63n(int64(20 * madeleine.Microsecond)))})
		}
	}
	return in.finish()
}

// outcome is what one run observed for one message, in virtual time.
type outcome struct {
	start, end         madeleine.Time // the latency window
	sendStart, sendEnd madeleine.Time // inside BeginPacking..EndPacking
	id                 uint64         // the library's message id
	done, ok           bool
}

// rig is one simulation: the system, its inputs and what it observed.
type rig struct {
	sys   *madeleine.System
	in    *inputs
	out   []outcome
	spans *spanLog // nil when untraced
	// tamper, when set, may replace a payload just before it is packed;
	// the tests use it to show the oracle catches corruption.
	tamper func(i int, b []byte) []byte
	// bcastStart and bcastEnd are, per bcast-gather round, the start of
	// the root's Broadcast call and the round's last delivery.
	bcastStart, bcastEnd []madeleine.Time
}

// send packs message i: its header block, then its payload.
func (x *rig) send(p *madeleine.Proc, i int) {
	m, o := &x.in.msgs[i], &x.out[i]
	o.sendStart = p.Now()
	h0 := x.spans.hostNow()
	px := x.sys.At(m.src).BeginPacking(p, m.dst)
	o.id = px.MsgID()
	hdr := x.in.hdr(i)
	binary.LittleEndian.PutUint32(hdr[0:], uint32(i))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(m.size))
	binary.LittleEndian.PutUint64(hdr[8:], o.id)
	body := x.in.payload(i)
	if x.tamper != nil {
		body = x.tamper(i, body)
	}
	px.Pack(p, hdr, madeleine.SendCheaper, madeleine.ReceiveExpress)
	px.Pack(p, body, madeleine.SendCheaper, madeleine.ReceiveCheaper)
	px.EndPacking(p)
	o.sendEnd = p.Now()
	x.spans.add("api.send", o.id, h0, o.sendStart, o.sendEnd)
}

// receiver is one node's reused receive buffers.
type receiver struct {
	node string
	hdr  []byte
	buf  []byte
}

func (x *rig) newReceiver(node string) *receiver {
	largest := 0
	for i := range x.in.msgs {
		if m := &x.in.msgs[i]; m.dst == node && !m.delivery {
			largest = max(largest, m.size)
		}
	}
	return &receiver{node: node, hdr: make([]byte, hdrLen), buf: make([]byte, largest)}
}

// recv takes one point-to-point message at rv's node and checks it against
// the generated inputs: the header must name a message bound for this node,
// the length must match, and every payload byte must equal the pool slice
// that message was generated with. It returns the message index, or -1 when
// the header cannot be trusted (the message then counts as failed).
func (x *rig) recv(p *madeleine.Proc, rv *receiver) int {
	h0 := x.spans.hostNow()
	t0 := p.Now()
	u := x.sys.At(rv.node).BeginUnpacking(p)
	u.Unpack(p, rv.hdr, madeleine.SendCheaper, madeleine.ReceiveExpress)
	i := int(binary.LittleEndian.Uint32(rv.hdr[0:]))
	size := int(binary.LittleEndian.Uint32(rv.hdr[4:]))
	if size > len(rv.buf) {
		// Unreadable without a buffer of the claimed size; stop here and
		// let the run report what is missing.
		panic(fmt.Errorf("%s: header claims %d bytes, largest expected is %d", rv.node, size, len(rv.buf)))
	}
	u.Unpack(p, rv.buf[:size], madeleine.SendCheaper, madeleine.ReceiveCheaper)
	u.EndUnpacking(p)
	if i >= len(x.in.msgs) || x.in.msgs[i].dst != rv.node || x.in.msgs[i].delivery || x.out[i].done {
		return -1
	}
	o := &x.out[i]
	o.done = true
	o.end = p.Now()
	o.ok = size == x.in.msgs[i].size && string(rv.buf[:size]) == string(x.in.payload(i))
	x.spans.add("api.recv", o.id, h0, t0, o.end)
	return i
}

func drivePingpong(x *rig) {
	byFlow := map[int][]int{}
	for i := range x.in.msgs {
		byFlow[x.in.msgs[i].flow] = append(byFlow[x.in.msgs[i].flow], i)
	}
	for f := 0; f < len(byFlow); f++ {
		idx := byFlow[f]
		src, dst := x.in.msgs[idx[0]].src, x.in.msgs[idx[0]].dst
		ack := make([]byte, 1)
		x.sys.Spawn("ping:"+src, func(p *madeleine.Proc) {
			for _, i := range idx {
				x.out[i].start = p.Now()
				x.send(p, i)
				u := x.sys.At(src).BeginUnpacking(p)
				u.Unpack(p, ack, madeleine.SendCheaper, madeleine.ReceiveExpress)
				u.EndUnpacking(p)
				if ack[0] != byte(i) {
					x.out[i].ok = false
				}
			}
		})
		rv := x.newReceiver(dst)
		x.sys.Spawn("pong:"+dst, func(p *madeleine.Proc) {
			for range idx {
				i := x.recv(p, rv)
				if i < 0 {
					continue
				}
				px := x.sys.At(dst).BeginPacking(p, src)
				x.in.acks[i] = byte(i)
				px.Pack(p, x.in.acks[i:i+1], madeleine.SendCheaper, madeleine.ReceiveExpress)
				px.EndPacking(p)
			}
		})
	}
}

// driveOpenLoop runs one sender per flow that sends each message at its due
// time (or as soon as the previous send returns, if that is later), and one
// receiver per destination node.
func driveOpenLoop(x *rig) {
	byFlow := map[int][]int{}
	expect := map[string]int{}
	for i := range x.in.msgs {
		m := &x.in.msgs[i]
		byFlow[m.flow] = append(byFlow[m.flow], i)
		expect[m.dst]++
	}
	for f := 0; f < len(byFlow); f++ {
		idx := byFlow[f]
		x.sys.Spawn(fmt.Sprintf("gen:%d", f), func(p *madeleine.Proc) {
			for _, i := range idx {
				due := x.in.msgs[i].due
				if now := p.Now(); now < due {
					p.Sleep(due.Sub(now))
				}
				x.out[i].start = due
				x.send(p, i)
			}
		})
	}
	nodes := make([]string, 0, len(expect))
	for n := range expect {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	for _, n := range nodes {
		rv, count := x.newReceiver(n), expect[n]
		x.sys.Spawn("sink:"+n, func(p *madeleine.Proc) {
			for k := 0; k < count; k++ {
				x.recv(p, rv)
			}
		})
	}
}

// driveBcastGather runs closed-loop rounds: the root broadcasts 64 KB to
// the 63 other members through the collective layer, each member checks
// it, waits its seeded think time and replies 4 KB, and the root starts the
// next round once every reply is in.
func driveBcastGather(x *rig) {
	in := x.in
	nm := len(in.members)
	per := 2 * (nm - 1) // messages per round
	x.bcastStart = make([]madeleine.Time, in.rounds)
	x.bcastEnd = make([]madeleine.Time, in.rounds)
	for k, name := range in.members {
		comm, err := x.sys.CommAt(name, in.members...)
		if err != nil {
			panic(err) // the member list is generated, never invalid
		}
		if k == 0 {
			rv := x.newReceiver(name)
			x.sys.Spawn("root:"+name, func(p *madeleine.Proc) {
				for rd := 0; rd < in.rounds; rd++ {
					first := rd * per
					x.bcastStart[rd] = p.Now()
					h0 := x.spans.hostNow()
					comm.Broadcast(p, 0, in.payload(first))
					x.spans.add("coll.bcast.root", uint64(rd), h0, x.bcastStart[rd], p.Now())
					for m := 1; m < nm; m++ {
						x.recv(p, rv)
					}
				}
			})
			continue
		}
		buf := make([]byte, 64<<10)
		x.sys.Spawn("member:"+name, func(p *madeleine.Proc) {
			for rd := 0; rd < in.rounds; rd++ {
				d := rd*per + k - 1 // this member's delivery
				h0 := x.spans.hostNow()
				t0 := p.Now()
				comm.Broadcast(p, 0, buf)
				o := &x.out[d]
				o.start, o.end, o.done = x.bcastStart[rd], p.Now(), true
				o.ok = string(buf) == string(in.payload(d))
				if o.end > x.bcastEnd[rd] {
					x.bcastEnd[rd] = o.end
				}
				x.spans.add("coll.bcast.member", uint64(rd), h0, t0, o.end)
				reply := d + nm - 1
				p.Sleep(in.msgs[reply].think)
				x.out[reply].start = p.Now()
				x.send(p, reply)
			}
		})
	}
}
