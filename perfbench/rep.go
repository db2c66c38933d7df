package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	madeleine "madgo"
)

// record is the virtual-clock outcome of one episode. Two runs of one
// episode must produce identical records, traced or not.
type record struct {
	Attempted int   `json:"attempted"`
	Failed    int   `json:"failed"`
	OkBytes   int64 `json:"ok_bytes"`
	// Makespan is the virtual time of the episode's last delivery (ns).
	Makespan int64 `json:"makespan_ns"`
	// Lat holds every message's latency in virtual µs, sorted; a message
	// that never arrived intact counts as waiting until the makespan.
	Lat []float64 `json:"lat_us"`
	// FlowBytes and FlowSecs are each flow's intact payload bytes and
	// summed latency seconds, indexed by flow.
	FlowBytes []float64 `json:"flow_bytes"`
	FlowSecs  []float64 `json:"flow_secs"`
}

// repResult is what one repetition (one episode, in its own process)
// reports to the parent process.
type repResult struct {
	V record `json:"v"`
	// Err names what went wrong in the run, if anything.
	Err string `json:"err,omitempty"`

	// SetupSeconds covers ParseTopology plus NewSystemFromTopology,
	// ParseSeconds the first alone; RouteSeconds times RouteTable on the
	// parsed topology (traced repetitions only).
	SetupSeconds float64 `json:"setup_seconds"`
	ParseSeconds float64 `json:"parse_seconds"`
	RouteSeconds float64 `json:"route_seconds,omitempty"`
	RunSeconds   float64 `json:"run_seconds"`
	Allocs       uint64  `json:"allocs"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	HeapSys      uint64  `json:"heap_sys"`

	// Traced repetitions only.
	Layer   map[string]float64 `json:"layer,omitempty"`
	Samples map[string]int64   `json:"samples,omitempty"`
	Spans   []span             `json:"spans,omitempty"`
}

// delivered is how many messages arrived intact.
func (r repResult) delivered() int { return r.V.Attempted - r.V.Failed }

// repConfig selects what one repetition runs. Tests set extra and tamper.
type repConfig struct {
	w       *workload
	seed    int64
	episode int
	traced  bool
	short   bool
	extra   []madeleine.Option
	tamper  func(i int, b []byte) []byte
}

// episodeSeed derives the seed of one episode of a run (splitmix64).
func episodeSeed(seed int64, episode int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(episode+1)*0xbf58476d1ce4e5b9
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

func runRep(c repConfig) repResult {
	seed := episodeSeed(c.seed, c.episode)
	in := c.w.gen(rand.New(rand.NewSource(seed)), c.short)
	var res repResult
	opts := append(c.w.opts(seed), c.extra...)
	var spans *spanLog
	if c.traced {
		opts = append(opts, madeleine.WithMetrics(madeleine.NewMetrics()),
			madeleine.WithFlightRingCap(c.w.ringCap))
		spans = newSpanLog()
	}
	// Set-up: parse the topology and build the System, on a clean heap.
	runtime.GC()
	h0 := spans.hostNow()
	t0 := time.Now()
	tp, err := madeleine.ParseTopology(c.w.config)
	var sys *madeleine.System
	if err == nil {
		res.ParseSeconds = time.Since(t0).Seconds()
		spans.add("topo.parse", 0, h0, 0, 0)
		h1 := spans.hostNow()
		sys, err = madeleine.NewSystemFromTopology(tp, opts...)
		res.SetupSeconds = time.Since(t0).Seconds()
		spans.add("api.new_system", 0, h1, 0, 0)
	}
	if err != nil {
		res.Err = "set-up: " + err.Error()
		res.V = record{Attempted: len(in.msgs), Failed: len(in.msgs)}
		return res
	}
	if c.traced {
		h2 := spans.hostNow()
		t2 := time.Now()
		madeleine.RouteTable(tp)
		res.RouteSeconds = time.Since(t2).Seconds()
		spans.add("route.table", 0, h2, 0, 0)
	}
	x := &rig{sys: sys, in: in, out: make([]outcome, len(in.msgs)), spans: spans, tamper: c.tamper}
	c.w.drive(x)

	var prof bytes.Buffer
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if c.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			res.Err = "cpu profile: " + err.Error()
		}
	}
	t1 := time.Now()
	runErr := safeRun(sys)
	res.RunSeconds = time.Since(t1).Seconds()
	if c.traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&m1)
	res.Allocs = m1.Mallocs - m0.Mallocs
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.HeapSys = m1.HeapSys
	if runErr != nil {
		res.Err = errName(runErr) + ": " + runErr.Error()
	}

	res.V = summarize(x)
	if c.traced {
		res.Layer = layerMetrics(x, res.V)
		samples, err := attribute(prof.Bytes())
		if err != nil && res.Err == "" {
			res.Err = "cpu profile: " + err.Error()
		}
		res.Samples = samples
		res.Spans = spans.spans
		if d := sys.Flight().Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: flight rings overwrote %d events; budgets are partial\n", d)
		}
	}
	return res
}

// safeRun runs the simulation, turning a panic raised inside it (a library
// bug, or an untrustworthy header in the oracle) into an error so the
// benchmark reports it instead of crashing.
func safeRun(sys *madeleine.System) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return sys.Run()
}

// errName classifies a Run error by the library's error types.
func errName(err error) string {
	var de *madeleine.DeliveryError
	switch {
	case errors.As(err, &de):
		return "DeliveryError"
	case errors.Is(err, madeleine.ErrNoRoute):
		return "ErrNoRoute"
	case strings.HasPrefix(err.Error(), "vtime: deadlock"):
		return "DeadlockError"
	case strings.HasPrefix(err.Error(), "panic: "):
		return "panic"
	}
	return fmt.Sprintf("%T", err)
}

// summarize turns one episode's outcomes into its record.
func summarize(x *rig) record {
	v := record{Attempted: len(x.out)}
	var last madeleine.Time
	flows := 0
	for i := range x.out {
		if o := &x.out[i]; o.done && o.end > last {
			last = o.end
		}
		if f := x.in.msgs[i].flow; f >= flows {
			flows = f + 1
		}
	}
	v.Makespan = int64(last)
	v.FlowBytes = make([]float64, flows)
	v.FlowSecs = make([]float64, flows)
	v.Lat = make([]float64, 0, len(x.out))
	for i := range x.out {
		m, o := &x.in.msgs[i], &x.out[i]
		if !o.ok {
			v.Failed++
			v.Lat = append(v.Lat, float64(last-o.start)/1e3)
			continue
		}
		v.OkBytes += int64(m.size)
		d := o.end.Sub(o.start)
		v.Lat = append(v.Lat, float64(d)/1e3)
		v.FlowBytes[m.flow] += float64(m.size)
		v.FlowSecs[m.flow] += d.Seconds()
	}
	sort.Float64s(v.Lat)
	return v
}

// endToEnd pools the records of a run's episodes into the virtual-clock
// end-to-end metrics.
func endToEnd(recs []record, jainFrom int) map[string]float64 {
	var okBytes, attempted, failed int
	var makespan float64
	var lat []float64
	var flowBytes, flowSecs []float64
	for _, r := range recs {
		okBytes += int(r.OkBytes)
		attempted += r.Attempted
		failed += r.Failed
		makespan += float64(r.Makespan) / 1e9
		lat = append(lat, r.Lat...)
		for len(flowBytes) < len(r.FlowBytes) {
			flowBytes = append(flowBytes, 0)
			flowSecs = append(flowSecs, 0)
		}
		for f := range r.FlowBytes {
			flowBytes[f] += r.FlowBytes[f]
			flowSecs[f] += r.FlowSecs[f]
		}
	}
	sort.Float64s(lat)
	var rates []float64
	for f := jainFrom; f < len(flowBytes); f++ {
		if flowSecs[f] > 0 {
			rates = append(rates, flowBytes[f]/flowSecs[f])
		} else {
			rates = append(rates, 0)
		}
	}
	goodput := 0.0
	if makespan > 0 {
		goodput = float64(okBytes) / makespan / 1e6
	}
	return map[string]float64{
		"goodput_mbps":    goodput,
		"lat_p50_us":      quantile(lat, 0.50),
		"lat_p99_us":      quantile(lat, 0.99),
		"jain":            jain(rates),
		"delivered_ratio": float64(attempted-failed) / float64(max(attempted, 1)),
	}
}

// layerMetrics reads the per-layer counters and latency budgets of a traced
// repetition; see the README for which end-to-end metric each should move.
func layerMetrics(x *rig, v record) map[string]float64 {
	sys := x.sys
	st := sys.Stats()
	msgs := float64(len(x.out))
	payload := float64(v.OkBytes)
	per := func(n int64, d float64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / d
	}
	l := map[string]float64{}

	// Virtual-time stage shares over every message the recorder saw. Stage
	// work overlaps on pipelined paths, so each share is taken of the
	// attributed work plus the unattributed time, not of the latency.
	var stages []float64
	var total float64
	for _, b := range sys.Budgets() {
		total += (b.Attributed() + b.Other).Seconds()
		for len(stages) < len(b.Stages) {
			stages = append(stages, 0)
		}
		for s, d := range b.Stages {
			stages[s] += d.Seconds()
		}
	}
	share := func(s madeleine.Stage) float64 {
		if total == 0 || int(s) >= len(stages) {
			return 0
		}
		return stages[s] / total
	}
	l["hw.wire_vshare"] = share(madeleine.StageWire)
	l["fwd.gtm.swap_vshare"] = share(madeleine.StageSwap)
	l["fwd.gtm.stall_vshare"] = share(madeleine.StageStall)
	l["mad.pack_vshare"] = share(madeleine.StagePack)
	l["agg.wait_vshare"] = share(madeleine.StageAggWait)
	l["fwd.rel.rexmit_vshare"] = share(madeleine.StageRexmit)
	l["fwd.rel.ack_wait_vshare"] = share(madeleine.StageAckWait)
	l["fwd.stripe.reassembly_vshare"] = share(madeleine.StageReassembly)
	l["flow.queue_wait_vshare"] = share(madeleine.StageQueueWait)

	var gwPackets, gwStalls, gwBytes int64
	for _, g := range st.Gateways {
		gwPackets += g.Packets
		gwStalls += g.Stalls
		gwBytes += g.Bytes
	}
	l["fwd.gtm.gw_packets_per_msg"] = per(gwPackets, msgs)
	l["fwd.gtm.stalls_per_msg"] = per(gwStalls, msgs)
	var wire float64
	for _, s := range sys.Metrics().Samples() {
		if s.Name == "madgo_link_send_bytes_total" {
			wire += s.Value
		}
	}
	l["fwd.gtm.wire_bytes_per_payload_byte"] = 0
	if payload > 0 {
		l["fwd.gtm.wire_bytes_per_payload_byte"] = wire / payload
	}
	copies, copyBytes := sys.Copies()
	l["mad.copy_bytes_per_payload_byte"] = per(copyBytes, payload)
	l["mad.copies_per_msg"] = per(copies, msgs)
	l["fwd.rel.retransmits_per_msg"] = per(st.Delivery.Retransmits, msgs)
	l["fwd.rel.ack_packets_per_msg"] = per(st.Ack.Packets, msgs)
	var railTotal, railMin int64 = 0, math.MaxInt64
	for _, b := range st.Stripe.RailBytes {
		railTotal += b
		railMin = min(railMin, b)
	}
	l["fwd.stripe.min_rail_byte_share"] = 0
	if len(st.Stripe.RailBytes) >= 2 {
		l["fwd.stripe.min_rail_byte_share"] = per(railMin, float64(railTotal))
	}
	l["agg.subs_per_frame"] = per(st.Agg.SubMessages, float64(st.Agg.Frames))
	l["agg.idle_flush_share"] = per(st.Agg.IdleFlushes, float64(st.Agg.Frames))
	l["flow.backpressure_per_msg"] = per(st.Flow.Backpressure, msgs)
	l["flow.stalls_per_msg"] = per(st.Flow.Stalls, msgs)
	l["health.probes_per_vs"], l["health.epochs"] = 0, 0
	if h := sys.Health(); h != nil && v.Makespan > 0 {
		l["health.probes_per_vs"] = float64(h.Probes()) / (float64(v.Makespan) / 1e9)
		l["health.epochs"] = float64(h.Epoch())
	}
	l["fwd.mcast.replicated_packets_per_bcast"] = per(st.Mcast.ReplicatedPackets, float64(st.Mcast.Messages))
	l["fwd.mcast.gw_ingress_bytes_per_bcast"] = 0
	if st.Mcast.Relays > 0 {
		l["fwd.mcast.gw_ingress_bytes_per_bcast"] = per(gwBytes-replyRelayBytes(x), float64(st.Mcast.Relays))
	}
	l["fwd.mcast.tree_recomputes"] = float64(st.Mcast.TreeRecomputes)

	// Spans at the benchmark's own boundaries, in virtual time.
	var send, lag, bcast []float64
	for i := range x.out {
		if o := &x.out[i]; o.id != 0 {
			send = append(send, float64(o.sendEnd-o.sendStart)/1e3)
			lag = append(lag, float64(o.sendStart-o.start)/1e3)
		}
	}
	for rd := range x.bcastStart {
		bcast = append(bcast, float64(x.bcastEnd[rd]-x.bcastStart[rd])/1e3)
	}
	sort.Float64s(send)
	sort.Float64s(lag)
	sort.Float64s(bcast)
	l["api.send_vblock_p99_us"] = quantile(send, 0.99)
	l["bench.gen_lag_p99_us"] = quantile(lag, 0.99)
	l["coll.bcast_vlat_p99_us"] = quantile(bcast, 0.99)
	return l
}

// replyRelayBytes is the point-to-point traffic the gateways relay in
// bcast-gather: each reply crosses one gateway per cluster between its
// sender h<c>_<i> and the root in cluster 0.
func replyRelayBytes(x *rig) int64 {
	var n int64
	for i := range x.in.msgs {
		m := &x.in.msgs[i]
		var c int
		if m.delivery || !x.out[i].done {
			continue
		}
		if _, err := fmt.Sscanf(m.src, "h%d_", &c); err == nil {
			n += int64(c) * int64(m.size+hdrLen)
		}
	}
	return n
}

// quantile is the nearest-rank q-quantile of sorted values (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(k, 0)]
}

// jain is Jain's fairness index (Σx)²/(n·Σx²).
func jain(xs []float64) float64 {
	var s, s2 float64
	for _, x := range xs {
		s += x
		s2 += x * x
	}
	if s2 == 0 {
		return 0
	}
	return s * s / (float64(len(xs)) * s2)
}
