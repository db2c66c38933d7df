package fwd

import (
	"fmt"

	"madgo/internal/flight"
	"madgo/internal/fluid"
	"madgo/internal/health"
	"madgo/internal/hw"
	"madgo/internal/mad"
	"madgo/internal/obs"
	"madgo/internal/route"
	"madgo/internal/topo"
	"madgo/internal/trace"
	"madgo/internal/vtime"
	"madgo/internal/vtime/vsync"
)

// Config tunes the forwarding machinery. The defaults reproduce the paper's
// setup; the ablation benchmarks flip individual knobs.
type Config struct {
	// MTU is the GTM packet size — "an appropriate paquet size can be
	// chosen at compile time because the network configuration is
	// statically configured" (§2.3). The paper's analysis points at the
	// 16 KB SCI/Myrinet crossover; its figures sweep 8–128 KB.
	MTU int
	// PipelineDepth is the number of buffers each gateway forwarder
	// rotates. The paper uses two (one receiving, one sending); one
	// disables pipelining (ablation A3).
	PipelineDepth int
	// ZeroCopy enables the §2.3 buffer election on gateways. When false
	// every relayed packet pays an explicit staging copy (ablation A3).
	ZeroCopy bool
	// PathMTU switches packet-size selection from channel-global to
	// per-path: every message is fragmented at the minimum MTU over the
	// networks its route traverses (§2.3 — "the MTU of a connexion is
	// defined as the [minimum] of the MTU of each network used"), so
	// traffic between nodes on a large-MTU network is no longer cut down
	// to the smallest network anywhere in the configuration.
	PathMTU bool
	// NetMTU gives per-network packet-size caps for the PathMTU
	// negotiation; networks absent from the map default to MTU. Only
	// consulted when PathMTU is set.
	NetMTU map[string]int
	// InflowLimit, when positive (bytes/s), throttles each gateway
	// forwarder's receive loop to that rate — the "sophisticated
	// bandwidth control mechanism [to] regulate the incoming
	// communication flow on gateways" the paper's conclusion calls for
	// (ablation A4).
	InflowLimit float64
	// Tracer, when non-nil, records gateway pipeline spans for the
	// Figure 5/8 timelines.
	Tracer *trace.Tracer
	// Reliable switches the virtual channel from the paper's streaming
	// GTM to the reliable datagram protocol (see reliable.go): sequenced,
	// checksummed, acknowledged packets with retransmission and
	// multi-gateway failover. Required for running under fault injection.
	Reliable bool
	// Retry tunes the reliability protocol; zero fields take defaults.
	// Only meaningful with Reliable.
	Retry RetryPolicy
	// FallbackTopo, when non-nil in reliable mode, is a larger topology
	// (typically the full configuration including the slow control
	// network) whose extra networks become alternate paths once the
	// primary topology has no live route. Its node set must contain every
	// node of the primary topology.
	FallbackTopo *topo.Topology
	// StripeK, when at least 2, enables multi-rail striping: large
	// messages are split across up to StripeK link-disjoint routes per
	// node pair (see stripe.go), rate-proportionally. 0 and 1 keep the
	// single-route send path.
	StripeK int
	// StripeThreshold is the minimum message size (bytes) striping is
	// attempted for; smaller messages take the single-rail path. 0 means
	// DefaultStripeThreshold.
	StripeThreshold int
	// Health, when non-nil, arms the link-health failure detector (package
	// health): passive evidence from the reliable protocol plus active
	// probes drive per-link Up/Suspect/Dead/Probation states, and every
	// death or re-admission publishes a new epoch of shared route tables.
	// Requires Reliable; zero fields of the config take defaults.
	Health *health.Config
	// FlowControl arms credit-based gateway flow control (see flowctl.go
	// and package flow): senders spend a per-(gateway, sender) credit per
	// wire transfer toward a gateway and the gateway grants credits back as
	// its relay ring frees, so a many-senders incast turns into typed
	// sender-side stalls instead of mailbox pressure; gateways additionally
	// swap their FIFO arrival handling for a deficit-round-robin scheduler
	// that equalizes long-run byte rates across ingress flows. This is the
	// "regulate the incoming communication flow on gateways" mechanism the
	// paper's conclusion leaves as future work.
	FlowControl bool
	// CreditWindow overrides the per-(gateway, sender) credit window
	// (DefaultCreditWindow when 0). Requires FlowControl.
	CreditWindow int
	// Eager switches forwarded streaming messages to the compact GTM
	// framing (eager.go): the self-description header piggybacks on the
	// first data fragment and the terminator collapses into the last
	// fragment's EOM flag, so a small message crosses each wire once
	// instead of three times. Streaming only — the reliable protocol has
	// its own packet framing.
	Eager bool
	// Aggregation arms the cross-message coalescer (agg.go): consecutive
	// sub-MTU messages toward the same forwarded destination are packed
	// into one MTU-sized aggregate frame and flushed as a single wire
	// transfer (and a single flow-control credit). Direct (one-network)
	// traffic is never aggregated.
	Aggregation bool
	// AggIdleFlush overrides the coalescer's idle deadline
	// (DefaultAggIdleFlush when 0). Requires Aggregation.
	AggIdleFlush vtime.Duration
}

// DefaultConfig returns the paper's forwarding configuration with a 32 KB
// MTU.
func DefaultConfig() Config {
	return Config{MTU: 32 * 1024, PipelineDepth: 2, ZeroCopy: true}
}

func (c Config) validate() error {
	if c.MTU <= 0 {
		return fmt.Errorf("fwd: MTU must be positive, got %d", c.MTU)
	}
	if c.PipelineDepth < 1 {
		return fmt.Errorf("fwd: PipelineDepth must be at least 1, got %d", c.PipelineDepth)
	}
	if c.InflowLimit < 0 {
		return fmt.Errorf("fwd: negative InflowLimit")
	}
	for name, m := range c.NetMTU {
		if m <= 0 {
			return fmt.Errorf("fwd: NetMTU[%s] must be positive, got %d", name, m)
		}
	}
	if c.FallbackTopo != nil && !c.Reliable {
		return fmt.Errorf("fwd: FallbackTopo requires Reliable")
	}
	if c.StripeK < 0 || c.StripeK > stripeMaxRails {
		return fmt.Errorf("fwd: StripeK must be in [0, %d], got %d", stripeMaxRails, c.StripeK)
	}
	if c.StripeThreshold < 0 {
		return fmt.Errorf("fwd: negative StripeThreshold")
	}
	if c.Health != nil && !c.Reliable {
		return fmt.Errorf("fwd: Health requires Reliable")
	}
	if c.CreditWindow < 0 {
		return fmt.Errorf("fwd: negative CreditWindow")
	}
	if c.CreditWindow > 0 && !c.FlowControl {
		return fmt.Errorf("fwd: CreditWindow requires FlowControl")
	}
	if c.AggIdleFlush < 0 {
		return fmt.Errorf("fwd: negative AggIdleFlush")
	}
	if c.AggIdleFlush > 0 && !c.Aggregation {
		return fmt.Errorf("fwd: AggIdleFlush requires Aggregation")
	}
	return nil
}

// Binding ties a topology network to its simulated fabric and protocol
// driver.
type Binding struct {
	Net *hw.Network
	Drv mad.Driver
}

// incoming is an announced message on one of a node's regular channels,
// funnelled into the node's merged arrival queue by its polling threads. In
// reliable mode it is instead a fully-reassembled reliable message.
type incoming struct {
	ep  *mad.Endpoint
	a   *mad.Arrival
	rel *relMsg
	// mcast is a multicast message a relaying gateway on this node captured
	// for local delivery while replicating it (see mcast.go).
	mcast *mcastLocal
}

// VirtualChannel is the user-facing communication object of §2.2.1:
// "instead of simply creating a channel using a network protocol, we now
// create a virtual channel that includes a set of real channels".
type VirtualChannel struct {
	Name string

	sess *mad.Session
	tp   *topo.Topology
	tbl  *route.Table
	cfg  Config

	regular map[string]*mad.Channel // per network name
	special map[string]*mad.Channel // only for networks crossed mid-route
	nodes   map[string]*mad.Node
	merged  map[mad.Rank]*vsync.Chan[incoming]
	gates   map[string]*Gateway

	// Reliable-mode state: one engine per node, in declaration order.
	rel      map[string]*relEngine
	relOrder []string

	// mon is the link-health monitor; nil unless Config.Health is set.
	mon *health.Monitor

	// msgSeq issues channel-global message IDs at pack time; every layer a
	// message crosses records provenance hops under its ID. Deterministic:
	// the simulation is single-threaded, so pack order fixes the sequence.
	msgSeq uint64

	// stripe holds the multi-rail striping state; nil unless
	// Config.StripeK > 1 (see stripe.go).
	stripe *stripeState

	// pathMTUs caches the negotiated per-pair packet size (PathMTU mode).
	pathMTUs map[[2]string]int

	// nics retains the NIC model of every bound network so the diagnosis
	// pass can compare observed wire rates against nominal ones.
	nics map[string]hw.NICParams

	// flowc is the credit-based flow controller; nil unless
	// Config.FlowControl is set (see flowctl.go).
	flowc *flowCtl

	// aggst is the cross-message aggregation state (see agg.go); nil
	// unless Config.Aggregation is set.
	aggst *aggState

	// mcastst is the multicast state (see mcast.go): the per-(root,
	// member-set) distribution-plan cache and the McastStats counters.
	mcastst *mcastState
}

// netMTU returns the packet-size cap of one network under the PathMTU
// negotiation.
func (vc *VirtualChannel) netMTU(name string) int {
	if m, ok := vc.cfg.NetMTU[name]; ok {
		return m
	}
	return vc.cfg.MTU
}

// PathMTU returns the packet size used for messages from src to dst: the
// channel-global MTU normally, or — with Config.PathMTU — the minimum
// network MTU along the src→dst route, as §2.3 prescribes for a connexion
// spanning several networks. Routes and MTUs are static, so the result is
// cached per ordered pair.
func (vc *VirtualChannel) PathMTU(src, dst string) int {
	if !vc.cfg.PathMTU || src == dst {
		return vc.cfg.MTU
	}
	key := [2]string{src, dst}
	if m, ok := vc.pathMTUs[key]; ok {
		return m
	}
	// Nodes outside the primary topology (reliable-mode fallback nodes)
	// keep the global MTU: the routing table only covers the primary.
	if _, ok := vc.tp.Node(src); !ok {
		return vc.cfg.MTU
	}
	if _, ok := vc.tp.Node(dst); !ok {
		return vc.cfg.MTU
	}
	m := vc.cfg.MTU
	if r, ok := vc.tbl.Lookup(src, dst); ok {
		m = MTUForRoute(r, vc.netMTU)
	}
	vc.pathMTUs[key] = m
	return m
}

// nextMsgID issues the next channel-global message ID (IDs start at 1 so 0
// can mean "unassigned").
func (vc *VirtualChannel) nextMsgID() uint64 {
	vc.msgSeq++
	return vc.msgSeq
}

// metrics returns the platform's registry (nil records nothing).
func (vc *VirtualChannel) metrics() *obs.Registry { return vc.sess.Platform.Metrics }

// flight returns the platform's flight recorder (nil records nothing).
func (vc *VirtualChannel) flight() *flight.Recorder { return vc.sess.Platform.Flight }

// flightRing returns one node's flight-recorder ring (nil records
// nothing). Callers on hot paths cache the result once it is non-nil.
func (vc *VirtualChannel) flightRing(node string) *flight.Ring {
	return vc.sess.Platform.FlightRing(node)
}

// DiagnosisSignals builds the configuration context flight.Diagnose needs:
// pipeline depth and MTU, plus every bound network's nominal payload send
// rate and bus class, from the NIC models the channel was built with.
func (vc *VirtualChannel) DiagnosisSignals() flight.Signals {
	sig := flight.Signals{
		PipelineDepth: vc.cfg.PipelineDepth,
		MTU:           vc.cfg.MTU,
		NetRate:       make(map[string]float64),
		PIONet:        make(map[string]bool),
		DMANet:        make(map[string]bool),
	}
	for name, nic := range vc.nics {
		rate := nic.EffectiveSendRate(vc.netMTU(name))
		if nic.WireRate > 0 && nic.WireRate < rate {
			rate = nic.WireRate
		}
		sig.NetRate[name] = rate
		switch nic.SendBusClass {
		case fluid.ClassPIO:
			sig.PIONet[name] = true
		case fluid.ClassDMA:
			sig.DMANet[name] = true
		}
	}
	return sig
}

// Build creates the nodes, real channels, routing table and gateway engines
// of a virtual channel over the given topology. The session must be empty:
// the virtual channel owns the node set. Bindings must cover every network
// of the topology.
func Build(sess *mad.Session, tp *topo.Topology, bindings map[string]Binding, cfg Config) (*VirtualChannel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(sess.Nodes()) != 0 {
		return nil, fmt.Errorf("fwd: session already has nodes; Build owns node creation")
	}
	// In reliable mode with a fallback topology, nodes and real channels
	// are built over the fallback (superset) topology so the alternate
	// networks exist as forwarding paths; routing still prefers tp.
	buildTopo := tp
	if cfg.Reliable && cfg.FallbackTopo != nil {
		buildTopo = cfg.FallbackTopo
		for _, n := range tp.Nodes() {
			if _, ok := buildTopo.Node(n.Name); !ok {
				return nil, fmt.Errorf("fwd: FallbackTopo is missing node %s", n.Name)
			}
		}
		for _, nw := range tp.Networks() {
			if _, ok := buildTopo.Network(nw.Name); !ok {
				return nil, fmt.Errorf("fwd: FallbackTopo is missing network %s", nw.Name)
			}
		}
	}
	for _, nw := range buildTopo.Networks() {
		if _, ok := bindings[nw.Name]; !ok {
			return nil, fmt.Errorf("fwd: no binding for network %s", nw.Name)
		}
	}

	vc := &VirtualChannel{
		Name:    "vchan",
		sess:    sess,
		tp:      tp,
		cfg:     cfg,
		regular: make(map[string]*mad.Channel),
		special: make(map[string]*mad.Channel),
		nodes:   make(map[string]*mad.Node),
		merged:  make(map[mad.Rank]*vsync.Chan[incoming]),
		gates:   make(map[string]*Gateway),

		pathMTUs: make(map[[2]string]int),
		nics:     make(map[string]hw.NICParams),
		mcastst:  &mcastState{plans: make(map[string]*mcastPlan)},
	}
	for name, b := range bindings {
		vc.nics[name] = b.Drv.NIC()
	}
	if cfg.FlowControl {
		vc.flowc = newFlowCtl(vc, cfg.CreditWindow)
	}
	if cfg.Aggregation {
		vc.aggst = newAggState()
	}
	for _, n := range buildTopo.Nodes() {
		vc.nodes[n.Name] = sess.AddNode(n.Name)
	}
	vc.tbl = route.Compute(tp)

	// Regular channels: one per network over all attached nodes.
	for _, nw := range buildTopo.Networks() {
		b := bindings[nw.Name]
		members := make([]*mad.Node, len(nw.Members))
		for i, m := range nw.Members {
			members[i] = vc.nodes[m]
		}
		vc.regular[nw.Name] = sess.NewChannel("reg:"+nw.Name, b.Net, b.Drv, members...)
	}

	// Per-node merged arrival queues.
	for _, n := range buildTopo.Nodes() {
		node := vc.nodes[n.Name]
		vc.merged[node.Rank] = vsync.NewChan[incoming](fmt.Sprintf("merged:%s", n.Name), 4096)
	}

	if cfg.StripeK > 1 {
		// Striping needs the per-pair K-route cache and the static
		// network rates in both modes; in streaming mode the K-routes
		// additionally contribute special channels and gateway engines
		// below.
		vc.initStriping(bindings)
	}

	if cfg.Reliable {
		if cfg.Health != nil {
			sim := sess.Platform.Sim
			vc.mon = health.NewMonitor(*cfg.Health, tp, cfg.FallbackTopo,
				sess.Platform.Metrics, sim.After, sim.Now)
			// Health-epoch churn is a flight-recorder dump trigger: route
			// changes are exactly the moments whose surrounding event
			// history a post-mortem wants. The recorder is read through
			// the platform at call time, so one armed after Build still
			// sees epoch changes.
			vc.mon.SetEpochHook(func(epoch uint64, at vtime.Time) {
				vc.flightRing("health").Record(flight.KindEpoch, at, 0, 0, int(epoch), "")
				vc.flight().Dump(fmt.Sprintf("health-epoch-%d", epoch))
			})
		}
		vc.relOrder = buildTopo.NodeNames()
		vc.buildReliable(buildTopo)
		return vc, nil
	}

	// Special channels exist on every network some route crosses on a
	// non-final hop; gateway engines on every node some route relays
	// through.
	specialNets := make(map[string]bool)
	gateways := make(map[string]bool)
	names := tp.NodeNames()
	for _, src := range names {
		for _, dst := range names {
			if src == dst {
				continue
			}
			r, ok := vc.tbl.Lookup(src, dst)
			if !ok {
				return nil, fmt.Errorf("fwd: no route %s -> %s", src, dst)
			}
			for i, hop := range r {
				if i < len(r)-1 {
					specialNets[hop.Network] = true
					gateways[hop.To] = true
				}
			}
		}
	}
	// Striped rails may relay through networks and nodes no table route
	// uses; those need special channels and gateway engines too.
	if vc.stripe != nil {
		for _, rs := range vc.stripe.kroutes {
			for _, r := range rs {
				for i, hop := range r {
					if i < len(r)-1 {
						specialNets[hop.Network] = true
						gateways[hop.To] = true
					}
				}
			}
		}
	}
	for _, nw := range tp.Networks() {
		if !specialNets[nw.Name] {
			continue
		}
		b := bindings[nw.Name]
		members := make([]*mad.Node, len(nw.Members))
		for i, m := range nw.Members {
			members[i] = vc.nodes[m]
		}
		vc.special[nw.Name] = sess.NewChannel("spc:"+nw.Name, b.Net, b.Drv, members...)
	}

	// The merged queues are fed by one polling thread per (node, regular
	// channel) — "a polling mechanism ... to poll multiple networks at
	// the same time" (§2.2.2).
	sim := sess.Platform.Sim
	for _, n := range tp.Nodes() {
		node := vc.nodes[n.Name]
		q := vc.merged[node.Rank]
		for _, nwName := range n.Networks {
			ep := vc.regular[nwName].At(node)
			sim.SpawnDaemon(fmt.Sprintf("poll:%s:%s", n.Name, nwName), func(p *vtime.Proc) {
				for {
					a := ep.WaitArrival(p)
					q.Send(p, incoming{ep: ep, a: a})
				}
			})
		}
	}

	// Gateway engines.
	for name := range gateways {
		vc.gates[name] = newGateway(vc, vc.nodes[name])
	}
	for _, g := range vc.gates {
		g.start()
	}
	return vc, nil
}

// Session returns the underlying Madeleine session.
func (vc *VirtualChannel) Session() *mad.Session { return vc.sess }

// Table returns the routing table.
func (vc *VirtualChannel) Table() *route.Table { return vc.tbl }

// Config returns the forwarding configuration.
func (vc *VirtualChannel) Config() Config { return vc.cfg }

// Health returns the link-health monitor, or nil when Config.Health is
// unset.
func (vc *VirtualChannel) Health() *health.Monitor { return vc.mon }

// Gateways returns the names of the nodes running forwarding engines,
// sorted by name in the routing table's sense.
func (vc *VirtualChannel) Gateways() []string {
	var out []string
	for name := range vc.gates {
		out = append(out, name)
	}
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// NodeRank returns the session rank of a topology node.
func (vc *VirtualChannel) NodeRank(name string) mad.Rank {
	n, ok := vc.nodes[name]
	if !ok {
		panic("fwd: unknown node " + name)
	}
	return n.Rank
}

// Endpoint is a virtual channel as seen from one node.
type Endpoint struct {
	vc   *VirtualChannel
	node *mad.Node
}

// At returns the endpoint of the named node.
func (vc *VirtualChannel) At(name string) *Endpoint {
	n, ok := vc.nodes[name]
	if !ok {
		panic("fwd: unknown node " + name)
	}
	return &Endpoint{vc: vc, node: n}
}

// Node returns the endpoint's session node.
func (e *Endpoint) Node() *mad.Node { return e.node }

// packer is one send-path variant behind a Packing: a plain Madeleine
// message, a GTM or compact (eager) stream toward the first gateway, or one
// of the buffering senders (coalescer, stripes, reliable datagrams,
// multicast). BeginPacking and BeginMulticast choose it once per message.
type packer interface {
	pack(p *vtime.Proc, data []byte, s mad.SendMode, r mad.RecvMode)
	end(p *vtime.Proc)
}

// railPacker is a single-rail send path, as singleRail opens it. replay
// sends blocks a buffering packer already holds: their SendSafer blocks
// were snapshotted when first packed, so a stream sends them without a
// second copy.
type railPacker interface {
	packer
	replay(p *vtime.Proc, blocks []packedBlock)
}

// unpacker is one receive-path variant behind an Unpacking, chosen once by
// BeginUnpacking from the arrival.
type unpacker interface {
	unpack(p *vtime.Proc, dst []byte, s mad.SendMode, r mad.RecvMode)
	end(p *vtime.Proc)
}

// packedBlock is one application block held by a buffering packer until
// EndPacking, or handed to a single-rail path for replay.
type packedBlock struct {
	data []byte
	s    mad.SendMode
	r    mad.RecvMode
}

// bufferBlock appends one block to a buffering packer's list, charging the
// per-block pack cost. A SendSafer block is snapshotted first: the
// application may overwrite it once Pack returns, long before EndPacking
// sends it.
func bufferBlock(p *vtime.Proc, host *hw.Host, blocks []packedBlock, data []byte, s mad.SendMode, r mad.RecvMode) []packedBlock {
	p.Sleep(host.CPU.PackCost)
	if s == mad.SendSafer {
		host.Memcpy(p, len(data))
		data = append([]byte(nil), data...)
	}
	return append(blocks, packedBlock{data: data, s: s, r: r})
}

// plainPacking adapts a direct Madeleine message on a regular channel.
type plainPacking struct{ *mad.Packing }

func (x plainPacking) pack(p *vtime.Proc, data []byte, s mad.SendMode, r mad.RecvMode) {
	x.Pack(p, data, s, r)
}

func (x plainPacking) end(p *vtime.Proc) { x.EndPacking(p) }

// replay packs every block again: on a direct route the mad BMM owns the
// SendSafer copy, as for any plain message.
func (x plainPacking) replay(p *vtime.Proc, blocks []packedBlock) {
	for _, b := range blocks {
		x.Pack(p, b.data, b.s, b.r)
	}
}

// plainUnpacking adapts a direct Madeleine message on a regular channel.
type plainUnpacking struct{ *mad.Unpacking }

func (u plainUnpacking) unpack(p *vtime.Proc, dst []byte, s mad.SendMode, r mad.RecvMode) {
	u.Unpack(p, dst, s, r)
}

func (u plainUnpacking) end(p *vtime.Proc) { u.EndUnpacking(p) }

// Packing is an outgoing message on a virtual channel. Its send path is
// chosen once, at BeginPacking (or BeginMulticast): a plain Madeleine
// message on the regular channel, a self-described stream on the special
// channel toward the first gateway, or a buffering sender that coalesces,
// stripes, acknowledges or replicates it. The application cannot tell the
// difference.
type Packing struct {
	x     packer
	id    uint64
	ended bool
}

// MsgID returns the message's channel-global ID, assigned at BeginPacking.
// Registry.MessageTrace(id) reconstructs the message's hop-by-hop provenance
// when metrics are armed.
func (px *Packing) MsgID() uint64 { return px.id }

// BeginPacking starts a message to the named destination, choosing "the
// appropriate underlying real channel ... dynamically depending whether it
// is necessary to forward the message through a gateway or not" (§2.2.1).
func (e *Endpoint) BeginPacking(p *vtime.Proc, dst string) *Packing {
	if dst == e.node.Name {
		panic("fwd: message to self on " + dst)
	}
	vc := e.vc
	m := vc.metrics()
	// Aggregation: every message toward a forwarded (multi-network)
	// destination is offered to the coalescer; messages that turn out too
	// large spill (or bypass) to the ordinary path from there.
	if vc.cfg.Aggregation {
		if r, ok := vc.tbl.Lookup(e.node.Name, dst); ok && !r.Direct() {
			ax := newAggPacking(vc, e.node, dst)
			if m != nil {
				m.RecordHop(ax.id, p.Now(), e.node.Name, "pack", "agg -> "+dst, 0)
			}
			return &Packing{x: ax, id: ax.id}
		}
	}
	switch {
	case vc.cfg.Reliable:
		// Reliable datagram mode: every message, direct or forwarded,
		// takes the uniform packet path; routes are found per packet so
		// they can change under faults.
		if _, ok := vc.nodes[dst]; !ok {
			panic("fwd: unknown destination " + dst)
		}
		rp := newRelPacking(vc.rel[e.node.Name], dst)
		if m != nil {
			m.RecordHop(rp.id, p.Now(), e.node.Name, "pack", "reliable -> "+dst, 0)
		}
		return &Packing{x: rp, id: rp.id}
	case len(vc.stripeRoutes(e.node.Name, dst)) >= 2:
		// Striping: buffer the message and let EndPacking split it (or
		// fall back to the single-rail path below the size threshold).
		sx := newStripePacking(vc, e.node, dst)
		if m != nil {
			m.RecordHop(sx.id, p.Now(), e.node.Name, "pack",
				fmt.Sprintf("stripe -> %s (%d rails)", dst, len(vc.stripeRoutes(e.node.Name, dst))), 0)
		}
		return &Packing{x: sx, id: sx.id}
	}
	id := vc.nextMsgID()
	return &Packing{x: vc.singleRail(p, e.node, dst, id, ""), id: id}
}

// mustRoute returns the routing table's route from src to dst; a missing
// route is a configuration error.
func (vc *VirtualChannel) mustRoute(src, dst string) route.Route {
	r, ok := vc.tbl.Lookup(src, dst)
	if !ok {
		panic(fmt.Sprintf("fwd: no route %s -> %s", src, dst))
	}
	return r
}

// singleRail opens the single-route send path of one message; it is the
// one place that picks a unicast framing. A destination sharing a network
// with the sender gets a plain Madeleine message on the regular channel;
// any other gets a self-described stream toward the first gateway, compact
// (eager.go) under Config.Eager and the seed GTM framing otherwise.
// BeginPacking, the coalescer's spill and bypass, and the stripe fallback
// all open their messages here, so a buffered message is replayed exactly
// as BeginPacking would have sent it. why qualifies the pack record of
// such a replay.
func (vc *VirtualChannel) singleRail(p *vtime.Proc, node *mad.Node, dst string, id uint64, why string) railPacker {
	hop := vc.mustRoute(node.Name, dst)[0]
	link, gw := vc.egress(node.Rank, hop, hop.To == dst)
	m := vc.metrics()
	if gw == "" {
		if m != nil {
			m.RecordHop(id, p.Now(), node.Name, "pack", fmt.Sprintf("direct -> %s via %s%s", dst, hop.Network, why), 0)
		}
		return plainPacking{link.Channel.At(node).BeginPacking(p, link.Dst.Rank)}
	}
	var x railPacker
	kind := "gtm"
	if vc.cfg.Eager {
		x, kind = newEagerPacking(p, vc, node, link, vc.NodeRank(dst), id), "eager"
	} else {
		x = newGTMPacking(p, vc, node, link, vc.NodeRank(dst), id)
	}
	if m != nil {
		m.RecordHop(id, p.Now(), node.Name, "pack", fmt.Sprintf("%s -> %s via %s%s", kind, dst, hop.Network, why), 0)
	}
	return x
}

// egress is the virtual channel's channel rule (§2.2.1), applied to one hop
// leaving the node of rank from. A hop that ends at the message's final
// (sole) destination takes the regular channel and spends no flow credits:
// a plain receiver grants none back. Any other hop takes the special
// channel toward gateway hop.To, which is also the flow-credit target gw
// (empty on the regular channel).
func (vc *VirtualChannel) egress(from mad.Rank, hop route.Hop, final bool) (link *mad.Link, gw string) {
	if final {
		return vc.regular[hop.Network].Link(from, vc.NodeRank(hop.To)), ""
	}
	spc, ok := vc.special[hop.Network]
	if !ok {
		panic("fwd: hop toward gateway " + hop.To + " crosses network without a special channel: " + hop.Network)
	}
	return spc.Link(from, vc.NodeRank(hop.To)), hop.To
}

// Pack appends one block, as in the mad layer.
func (px *Packing) Pack(p *vtime.Proc, data []byte, s mad.SendMode, r mad.RecvMode) {
	if px.ended {
		panic("fwd: Pack after EndPacking")
	}
	px.x.pack(p, data, s, r)
}

// EndPacking completes the message.
func (px *Packing) EndPacking(p *vtime.Proc) {
	if px.ended {
		panic("fwd: double EndPacking")
	}
	px.ended = true
	px.x.end(p)
}

// Unpacking is an incoming message on a virtual channel. Its receive path
// is chosen once, at BeginUnpacking, from the arrival's kind.
type Unpacking struct {
	u     unpacker
	from  mad.Rank
	fwd   bool
	ended bool
}

// BeginUnpacking blocks until a message arrives on any of the node's
// regular channels and opens it with the module its arrival note selects —
// "to be able to chose between a regular Transmission Module and the
// Generic one, it needs some additional information ... transmitted before
// the actual message body" (§2.2.2).
func (e *Endpoint) BeginUnpacking(p *vtime.Proc) *Unpacking {
	vc := e.vc
	p.Sleep(e.node.Host.CPU.PollCost)
	for {
		// Sub-messages decoded from an earlier aggregate frame are
		// delivered FIFO before anything newer.
		if as, ok := vc.aggPop(e.node.Rank); ok {
			return &Unpacking{u: newAggUnpacking(vc, e.node, as), from: as.from, fwd: true}
		}
		in, ok := vc.merged[e.node.Rank].Recv(p)
		if !ok {
			panic("fwd: merged arrival queue closed")
		}
		if in.mcast != nil {
			// A multicast message the local gateway captured while
			// replicating it downstream.
			g := newMcastLocalUnpacking(vc, e.node, in.mcast)
			return &Unpacking{u: g, from: g.from, fwd: true}
		}
		if in.rel != nil {
			if in.rel.agg {
				vc.aggDecodeReliable(p, e.node, in.rel)
				continue
			}
			ru := newRelUnpacking(vc.rel[e.node.Name], in.rel)
			srcName := vc.sess.Node(in.rel.origin).Name
			fwd := len(vc.tp.SharedNetworks(srcName, e.node.Name)) == 0
			return &Unpacking{u: ru, from: in.rel.origin, fwd: fwd}
		}
		switch in.a.Kind() {
		case mad.KindStripe:
			// One rail of a striped message: file it and keep pulling
			// until some message (striped or not) is complete.
			g := vc.openStripeRail(p, e.node, in.a)
			if g == nil {
				continue
			}
			if g.agg {
				vc.aggDecodeStriped(p, e.node, g)
				continue
			}
			su := newStripeUnpacking(vc, e.node, g)
			return &Unpacking{u: su, from: su.from(), fwd: su.forwarded()}
		case mad.KindAgg:
			// A whole aggregate frame in one compact transfer: decode,
			// queue its sub-messages, deliver the first on the next spin.
			vc.openAggFrame(p, e.node, in.a)
			continue
		case mad.KindEager:
			g := newEagerUnpacking(p, vc, e.node, in.a)
			return &Unpacking{u: g, from: g.from, fwd: true}
		case mad.KindMcast:
			g := newMcastUnpacking(p, vc, e.node, in.a)
			return &Unpacking{u: g, from: g.from, fwd: true}
		case mad.KindGTM:
			g := newGTMUnpacking(p, vc, e.node, in.a)
			return &Unpacking{u: g, from: g.from, fwd: true}
		}
		u := in.ep.Open(p, in.a)
		return &Unpacking{u: plainUnpacking{u}, from: u.From()}
	}
}

// From returns the rank of the message's original sender, even across
// gateways.
func (u *Unpacking) From() mad.Rank { return u.from }

// Forwarded reports whether the message crossed at least one gateway.
func (u *Unpacking) Forwarded() bool { return u.fwd }

// Unpack extracts the next block, mirroring the sender's Pack exactly.
func (u *Unpacking) Unpack(p *vtime.Proc, dst []byte, s mad.SendMode, r mad.RecvMode) {
	if u.ended {
		panic("fwd: Unpack after EndUnpacking")
	}
	u.u.unpack(p, dst, s, r)
}

// EndUnpacking completes the message.
func (u *Unpacking) EndUnpacking(p *vtime.Proc) {
	if u.ended {
		panic("fwd: double EndUnpacking")
	}
	u.ended = true
	u.u.end(p)
}
