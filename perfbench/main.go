// Command perfbench is madgo's end-to-end benchmark. It runs one workload
// through the public madgo facade, checks every delivered byte against the
// seeded inputs, and prints one JSON line with the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced run (--trace 1).
//
//	perfbench --workload paper-pingpong --seed 1 --seconds 10 --trace 0
//
// A run pools the virtual-clock metrics of a fixed number of seeded
// episodes, each one simulation in a child process of this program: a madgo
// System keeps its parked simulation goroutines for the life of the
// process, so simulations sharing one process would slow and grow each
// other. Episodes are repeated until --seconds have passed; a repeated
// episode must reproduce its virtual-clock record exactly, and host-clock
// metrics are the median over every repetition. See README.md for the
// workloads and what each metric measures.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"time"

	madeleine "madgo"
)

// childEnv marks the environment of a child process; the package's tests
// use it to run the test binary as a child.
const childEnv = "PERFBENCH_CHILD"

// childTimeout bounds one repetition, so a hung simulation cannot keep the
// benchmark past its deadline.
const childTimeout = 60 * time.Second

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "how long to repeat the simulation (host seconds)")
	trace := fs.Int("trace", 0, "1 runs the traced repetitions and prints per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for the traced run's span file")
	child := fs.String("child", "", "internal: run one episode (plain|traced) and print its record as JSON")
	episode := fs.Int("episode", 0, "internal: the episode a child runs")
	short := fs.Bool("short", false, "run the short form of the workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookup(*name)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, not %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *child != "" {
		res := runRep(repConfig{w: w, seed: *seed, episode: *episode, traced: *child == "traced", short: *short})
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	d := runner{w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, short: *short, out: *out}
	res, err := d.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units of every metric the benchmark prints.
var units = map[string]string{
	"goodput_mbps":        "MB/s",
	"lat_p50_us":          "us",
	"lat_p99_us":          "us",
	"jain":                "ratio",
	"delivered_ratio":     "ratio",
	"sim_msgs_per_s":      "1/s",
	"allocs_per_msg":      "count",
	"alloc_bytes_per_msg": "B",
	"heap_peak_mb":        "MB",
	"setup_s":             "s",

	"hw.wire_vshare":                         "ratio",
	"fwd.gtm.swap_vshare":                    "ratio",
	"fwd.gtm.stall_vshare":                   "ratio",
	"mad.pack_vshare":                        "ratio",
	"agg.wait_vshare":                        "ratio",
	"fwd.rel.rexmit_vshare":                  "ratio",
	"fwd.rel.ack_wait_vshare":                "ratio",
	"fwd.stripe.reassembly_vshare":           "ratio",
	"flow.queue_wait_vshare":                 "ratio",
	"fwd.gtm.gw_packets_per_msg":             "count",
	"fwd.gtm.stalls_per_msg":                 "count",
	"fwd.gtm.wire_bytes_per_payload_byte":    "ratio",
	"mad.copy_bytes_per_payload_byte":        "ratio",
	"mad.copies_per_msg":                     "count",
	"fwd.rel.retransmits_per_msg":            "count",
	"fwd.rel.ack_packets_per_msg":            "count",
	"fwd.stripe.min_rail_byte_share":         "ratio",
	"agg.subs_per_frame":                     "count",
	"agg.idle_flush_share":                   "ratio",
	"flow.backpressure_per_msg":              "count",
	"flow.stalls_per_msg":                    "count",
	"health.probes_per_vs":                   "1/s",
	"health.epochs":                          "count",
	"fwd.mcast.replicated_packets_per_bcast": "count",
	"fwd.mcast.gw_ingress_bytes_per_bcast":   "B",
	"fwd.mcast.tree_recomputes":              "count",
	"api.send_vblock_p99_us":                 "us",
	"coll.bcast_vlat_p99_us":                 "us",
	"bench.gen_lag_p99_us":                   "us",
	"topo.parse_s":                           "s",
	"route.table_s":                          "s",
	"trace.overhead_ratio":                   "ratio",
}

func init() {
	for _, l := range layers {
		units[l+".host_share"] = "ratio"
	}
}

// runner runs the repetitions of one benchmark invocation.
type runner struct {
	w       *workload
	seed    int64
	seconds float64
	traced  bool
	short   bool
	out     string
}

func (d *runner) run() (result, error) {
	res := result{Correct: true, Metrics: map[string]metric{}}
	put := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: units[name]} }
	fail := func(format string, a ...any) {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", a...)
	}

	// Untraced: run every episode once, then repeat episodes from the first
	// until the time is up, at least once, so every run checks that a
	// repeated episode reproduces its virtual-clock record exactly. Traced:
	// run each episode untraced and then traced, as many as the time allows,
	// at least one pair; the traced record must equal the untraced one.
	episodes := d.w.episodes
	if d.short {
		episodes = 1
	}
	start := time.Now()
	var plain, traced []repResult
	firstRun := map[int]record{}
	for k := 0; ; k++ {
		elapsed := time.Since(start).Seconds() >= d.seconds
		if d.traced && elapsed && k >= 2 && k%2 == 0 {
			break
		}
		if !d.traced && elapsed && k > episodes {
			break
		}
		ep, mode := k%episodes, "plain"
		if d.traced {
			ep = k / 2 % episodes
			if k%2 == 1 {
				mode = "traced"
			}
		}
		r, err := d.child(mode, ep)
		if err != nil {
			return res, err
		}
		if r.Err != "" {
			fail("episode %d: %s", ep, r.Err)
		}
		if prev, ok := firstRun[ep]; !ok {
			firstRun[ep] = r.V
		} else if !reflect.DeepEqual(prev, r.V) {
			fail("episode %d of seed %d is not deterministic: a %s repetition produced a different virtual-clock record", ep, d.seed, mode)
		}
		if mode == "traced" {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}

	if !d.traced {
		recs := make([]record, episodes)
		for ep := range recs {
			recs[ep] = firstRun[ep]
		}
		for _, r := range recs {
			res.Attempted += r.Attempted
			res.Failed += r.Failed
		}
		if res.Failed > 0 {
			fail("%d of %d messages not delivered byte-identical", res.Failed, res.Attempted)
		}
		for name, v := range endToEnd(recs, d.w.jainFrom) {
			put(name, v)
		}
		perMsg := func(r repResult) float64 { return float64(max(r.delivered(), 1)) }
		put("sim_msgs_per_s", medianOf(plain, func(r repResult) float64 { return float64(r.delivered()) / r.RunSeconds }))
		put("allocs_per_msg", medianOf(plain, func(r repResult) float64 { return float64(r.Allocs) / perMsg(r) }))
		put("alloc_bytes_per_msg", medianOf(plain, func(r repResult) float64 { return float64(r.AllocBytes) / perMsg(r) }))
		put("heap_peak_mb", medianOf(plain, func(r repResult) float64 { return float64(r.HeapSys) / 1e6 }))
		put("setup_s", medianOf(plain, func(r repResult) float64 { return r.SetupSeconds }))
		return res, nil
	}

	first := traced[0]
	res.Attempted, res.Failed = first.V.Attempted, first.V.Failed
	if res.Failed > 0 {
		fail("%d of %d messages not delivered byte-identical", res.Failed, res.Attempted)
	}
	for name, v := range first.Layer {
		put(name, v)
	}
	samples := map[string]int64{}
	var total int64
	ratios := make([]float64, len(traced))
	for i, r := range traced {
		for l, n := range r.Samples {
			samples[l] += n
			total += n
		}
		ratios[i] = r.RunSeconds / plain[i].RunSeconds
	}
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = float64(samples[l]) / float64(total)
		}
		put(l+".host_share", share)
	}
	put("topo.parse_s", medianOf(traced, func(r repResult) float64 { return r.ParseSeconds }))
	put("route.table_s", medianOf(traced, func(r repResult) float64 { return r.RouteSeconds }))
	put("trace.overhead_ratio", median(ratios))
	if err := d.writeSpans(first.Spans); err != nil {
		return res, err
	}
	return res, nil
}

func medianOf(rs []repResult, f func(repResult) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// child runs one episode in a fresh process of this program.
func (d *runner) child(mode string, episode int) (repResult, error) {
	var r repResult
	exe, err := os.Executable()
	if err != nil {
		return r, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{"-child", mode, "-workload", d.w.name,
		"-seed", strconv.FormatInt(d.seed, 10), "-episode", strconv.Itoa(episode)}
	if d.short {
		args = append(args, "-short")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return r, fmt.Errorf("episode %d (%s) failed: %w", episode, mode, err)
	}
	if err := json.Unmarshal(stdout, &r); err != nil {
		return r, fmt.Errorf("episode %d (%s) printed no result: %w", episode, mode, err)
	}
	return r, nil
}

func (d *runner) writeSpans(spans []span) error {
	if err := os.MkdirAll(d.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(d.out, fmt.Sprintf("spans-%s-%d.json", d.w.name, d.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{d.w.name, d.seed, spans})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// span is one interval at a boundary the benchmark calls across, on both
// clocks. Spans of one message share its library message id; collective
// spans use the round number, set-up spans the build number.
type span struct {
	Name      string `json:"name"`
	ID        uint64 `json:"id"`
	HostStart int64  `json:"host_start_ns"`
	HostEnd   int64  `json:"host_end_ns"`
	VStart    int64  `json:"v_start_ns"`
	VEnd      int64  `json:"v_end_ns"`
}

// spanLog keeps spans in memory; a nil log records nothing.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) hostNow() int64 {
	if l == nil {
		return 0
	}
	return int64(time.Since(l.t0))
}

func (l *spanLog) add(name string, id uint64, h0 int64, v0, v1 madeleine.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{Name: name, ID: id, HostStart: h0, HostEnd: l.hostNow(),
		VStart: int64(v0), VEnd: int64(v1)})
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
