package fwd

import (
	"madgo/internal/flight"
	"madgo/internal/flow"
	"madgo/internal/obs"
	"madgo/internal/vtime"
	"madgo/internal/vtime/vsync"
)

// DefaultCreditWindow is the per-(gateway, sender) credit window when
// Config.FlowControl is on and Config.CreditWindow is zero: how many wire
// transfers one sender may have outstanding toward one gateway. The cost
// model charges exactly what crosses the wire — F+2 transfers per seed GTM
// message (header, fragments, terminator), F or fewer under the eager
// compact framing (header and terminator piggyback on data fragments), and
// a single credit per aggregate frame however many sub-messages it coalesces.
// Wide enough to keep a PipelineDepth-deep ring busy across the grant round
// trip, small enough that 64 senders cannot bury a gateway's mailbox.
const DefaultCreditWindow = 16

// flowKey identifies one credit account: the granting gateway and the
// upstream sender it protects itself from. The sender is a node name, not a
// connection — all of a node's traffic toward one gateway shares the
// account, which is what makes backpressure propagate hop by hop (a relay
// spending toward the next gateway is itself a sender).
type flowKey struct {
	gw, up string
}

// flowAccount is the live state of one credit account. The semaphore holds
// the sender's remaining window; grants release it, spends acquire it, and
// an exhausted window parks the sender in FIFO order — backpressure as a
// typed stall, never loss.
type flowAccount struct {
	key flowKey
	sem *vsync.Sem

	granted   int64
	spent     int64
	stalls    int64
	stallTime vtime.Duration

	seq     uint32
	scratch []byte // grant wire-codec scratch, reused per grant

	spendLabels obs.Labels
	grantLabels obs.Labels
	stallLabels obs.Labels
	fr          *flight.Ring // sender-side flight ring, cached when armed
}

// flowCtl is a virtual channel's credit-based flow controller: the table of
// credit accounts, lazily created in simulation order (deterministic) the
// first time a sender spends toward a gateway.
type flowCtl struct {
	vc     *VirtualChannel
	window int
	acct   map[flowKey]*flowAccount
	order  []flowKey
}

func newFlowCtl(vc *VirtualChannel, window int) *flowCtl {
	if window <= 0 {
		window = DefaultCreditWindow
	}
	return &flowCtl{vc: vc, window: window, acct: make(map[flowKey]*flowAccount)}
}

func (fc *flowCtl) account(gw, up string) *flowAccount {
	key := flowKey{gw: gw, up: up}
	if a, ok := fc.acct[key]; ok {
		return a
	}
	a := &flowAccount{
		key:         key,
		sem:         vsync.NewSem(fc.window),
		scratch:     make([]byte, 0, flow.GrantLen),
		spendLabels: obs.Labels{"node": up, "gateway": gw},
		grantLabels: obs.Labels{"gateway": gw},
		stallLabels: obs.Labels{"node": up},
	}
	fc.acct[key] = a
	fc.order = append(fc.order, key)
	return a
}

// spend consumes one credit of the (gw, up) account before a wire transfer
// toward gw, parking the caller until the gateway's grants replenish the
// window. A wait is the designed backpressure signal: it is recorded as a
// flight queue-wait event at the stalled sender and under the
// madgo_flow_credit_stall metrics, so an incast shows up as typed sender
// stalls instead of mailbox overflows or drops.
func (fc *flowCtl) spend(p *vtime.Proc, gw, up string, msgID uint64) {
	a := fc.account(gw, up)
	m := fc.vc.metrics()
	t0 := p.Now()
	a.sem.Acquire(p, 1)
	a.spent++
	m.Add("madgo_flow_credits_spent_total", a.spendLabels, 1)
	if wait := vtime.Since(p.Now(), t0); wait > 0 {
		a.stalls++
		a.stallTime += wait
		m.Add("madgo_flow_credit_stalls_total", a.stallLabels, 1)
		m.ObserveDuration("madgo_flow_credit_stall_seconds", a.stallLabels, wait)
		if a.fr == nil {
			a.fr = fc.vc.flightRing(up)
		}
		a.fr.Record(flight.KindQueueWait, p.Now(), wait, msgID, 0, "")
	}
}

// grant returns n credits from gw to the upstream sender. The grant goes
// through the wire codec — encoded into the account's scratch buffer and
// decoded back, the piggyback path the reverse traffic would carry — so the
// format is exercised end to end and a grant the codec would reject is a
// hard protocol error rather than a silently widened window.
func (fc *flowCtl) grant(gw, up string, n int) {
	a := fc.account(gw, up)
	a.scratch = flow.AppendGrant(a.scratch[:0], flow.Grant{
		Gateway:  uint32(fc.vc.NodeRank(gw)),
		Upstream: uint32(fc.vc.NodeRank(up)),
		Credits:  uint32(n),
		Seq:      a.seq,
	})
	a.seq++
	g, ok := flow.DecodeGrant(a.scratch)
	if !ok {
		panic("fwd: flow-control grant failed its own codec round trip")
	}
	a.sem.Release(int(g.Credits))
	a.granted += int64(g.Credits)
	fc.vc.metrics().Add("madgo_flow_credits_granted_total", a.grantLabels, float64(g.Credits))
}

// flowSpend spends one credit toward gw when flow control is armed; a no-op
// otherwise, and on a hop to the final destination (gw empty, see egress),
// which answers to nobody.
func (vc *VirtualChannel) flowSpend(p *vtime.Proc, gw, up string, msgID uint64) {
	if vc.flowc != nil && gw != "" {
		vc.flowc.spend(p, gw, up, msgID)
	}
}

// flowGrant returns n credits from gw to up when flow control is armed; a
// no-op otherwise.
func (vc *VirtualChannel) flowGrant(gw, up string, n int) {
	if vc.flowc != nil {
		vc.flowc.grant(gw, up, n)
	}
}

// FlowStats aggregates the flow controller's counters over every credit
// account and gateway scheduler. All fields are zero when
// Config.FlowControl is off.
type FlowStats struct {
	// Accounts is how many (gateway, sender) credit accounts exist.
	Accounts int
	// CreditsGranted and CreditsSpent count wire transfers: spent when a
	// sender consumed window, granted when a gateway returned it.
	CreditsGranted int64
	CreditsSpent   int64
	// Stalls is how many spends had to park on an exhausted window, and
	// StallTime the virtual time senders spent parked — the typed
	// backpressure signal.
	Stalls    int64
	StallTime vtime.Duration
	// SchedRounds is how many full deficit-round-robin passes the gateway
	// schedulers completed.
	SchedRounds int64
	// Backpressure counts reliable-mode relay admissions refused because
	// the fair relay queue was full (the upstream ARQ retransmits — no
	// loss).
	Backpressure int64
}

// FlowAccountStats is the per-account breakdown behind FlowStats, for
// diagnostic panels.
type FlowAccountStats struct {
	Gateway   string
	Sender    string
	Granted   int64
	Spent     int64
	Stalls    int64
	StallTime vtime.Duration
}

// FlowStats returns the flow-control counters, aggregated over every
// credit account and scheduler. Zero-valued when flow control is off.
func (vc *VirtualChannel) FlowStats() FlowStats {
	var s FlowStats
	if vc.flowc == nil {
		return s
	}
	s.Accounts = len(vc.flowc.order)
	for _, key := range vc.flowc.order {
		a := vc.flowc.acct[key]
		s.CreditsGranted += a.granted
		s.CreditsSpent += a.spent
		s.Stalls += a.stalls
		s.StallTime += a.stallTime
	}
	for _, g := range vc.gates {
		for _, sc := range g.scheds {
			s.SchedRounds += sc.drr.Rounds()
		}
	}
	for _, name := range vc.relOrder {
		if e := vc.rel[name]; e != nil {
			s.SchedRounds += e.relayRounds()
			s.Backpressure += e.flowBackpressure
		}
	}
	return s
}

// FlowAccounts returns the per-account flow-control counters in account
// creation order. Empty when flow control is off.
func (vc *VirtualChannel) FlowAccounts() []FlowAccountStats {
	if vc.flowc == nil {
		return nil
	}
	out := make([]FlowAccountStats, 0, len(vc.flowc.order))
	for _, key := range vc.flowc.order {
		a := vc.flowc.acct[key]
		out = append(out, FlowAccountStats{
			Gateway: key.gw, Sender: key.up,
			Granted: a.granted, Spent: a.spent,
			Stalls: a.stalls, StallTime: a.stallTime,
		})
	}
	return out
}
