package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	madeleine "madgo"
)

// TestMain lets the runner under test start this test binary as its child
// processes.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the output must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestShortRunsPrintEveryMetric runs the short form of every workload,
// untraced and traced, through the runner and its child processes, and
// checks that the output names exactly the metrics BENCHMARK.json lists,
// with their units, and that every message arrived intact.
func TestShortRunsPrintEveryMetric(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !reflect.DeepEqual(names, specNames) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", names, specNames)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			for _, m := range spec.EndToEnd {
				if !traced {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range spec.PerLayer {
				if traced {
					want[m.Name] = m.Unit
				}
			}
			d := runner{w: w, seed: 3, traced: traced, short: true, out: t.TempDir()}
			res, err := d.run()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d of %d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, name, m.Value)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: metrics\n got %v\nwant %v", w.name, traced, got, want)
			}
			if traced {
				var sum float64
				for _, l := range layers {
					sum += res.Metrics[l+".host_share"].Value
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s: host shares sum to %v, want 1", w.name, sum)
				}
				if _, err := os.Stat(d.out + "/spans-" + w.name + "-3.json"); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			} else if res.Metrics["setup_s"].Value <= 0 || res.Metrics["sim_msgs_per_s"].Value <= 0 {
				t.Errorf("%s: host metrics not measured: %v", w.name, res.Metrics)
			}
		}
	}
}

// TestRepeatAndTraceAgree checks that an episode reproduces its
// virtual-clock record exactly, and that tracing does not perturb it.
func TestRepeatAndTraceAgree(t *testing.T) {
	for _, w := range workloads {
		a := runRep(repConfig{w: w, seed: 5, episode: 2, short: true})
		b := runRep(repConfig{w: w, seed: 5, episode: 2, short: true})
		c := runRep(repConfig{w: w, seed: 5, episode: 2, short: true, traced: true})
		if a.Err != "" || c.Err != "" {
			t.Fatalf("%s: %q / %q", w.name, a.Err, c.Err)
		}
		if !reflect.DeepEqual(a.V, b.V) {
			t.Errorf("%s: repeated episode differs", w.name)
		}
		if !reflect.DeepEqual(a.V, c.V) {
			t.Errorf("%s: traced episode differs from the untraced one", w.name)
		}
		other := runRep(repConfig{w: w, seed: 5, episode: 3, short: true})
		if reflect.DeepEqual(a.V.Lat, other.V.Lat) {
			t.Errorf("%s: episodes 2 and 3 produced identical latencies", w.name)
		}
	}
}

// TestOracleCatchesCorruption flips one payload byte of one message on its
// way into the library; the receiver must reject exactly that message.
func TestOracleCatchesCorruption(t *testing.T) {
	for _, name := range []string{"paper-pingpong", "mixed-production", "bcast-gather"} {
		w, err := lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		victim := -1
		tamper := func(i int, b []byte) []byte {
			if victim >= 0 {
				return b
			}
			victim = i
			bad := append([]byte(nil), b...)
			bad[len(bad)/2] ^= 0x40
			return bad
		}
		r := runRep(repConfig{w: w, seed: 1, short: true, tamper: tamper})
		if r.Err != "" {
			t.Fatalf("%s: %s", name, r.Err)
		}
		if r.V.Failed != 1 {
			t.Errorf("%s: corrupted message %d gave %d failures, want 1", name, victim, r.V.Failed)
		}
		if m := endToEnd([]record{r.V}, w.jainFrom); m["delivered_ratio"] >= 1 {
			t.Errorf("%s: delivered_ratio %v despite a corrupted payload", name, m["delivered_ratio"])
		}
	}
}

// TestCrashedDestinationCountsAsFailure crashes a destination for good in a
// reliable run: the retry budget runs out, Run returns a DeliveryError, and
// the benchmark reports the undelivered messages instead of crashing.
func TestCrashedDestinationCountsAsFailure(t *testing.T) {
	w, err := lookup("mixed-production")
	if err != nil {
		t.Fatal(err)
	}
	rp := madeleine.DefaultRetryPolicy()
	rp.MessageRetries = 1
	crash := madeleine.WithFaults(madeleine.NewFaultPlan(1).Crash("b0", 0, 0))
	r := runRep(repConfig{w: w, seed: 1, short: true,
		extra: []madeleine.Option{crash, madeleine.WithRetryPolicy(rp)}})
	if !strings.HasPrefix(r.Err, "DeliveryError") {
		t.Errorf("run error %q, want a DeliveryError", r.Err)
	}
	if r.V.Failed == 0 {
		t.Fatal("no message counted as failed")
	}
	if m := endToEnd([]record{r.V}, w.jainFrom); m["delivered_ratio"] >= 1 {
		t.Errorf("delivered_ratio = %v, want < 1", m["delivered_ratio"])
	}
}

// TestPaperConfigIsPaperTestbed pins the textual testbed to PaperTestbed().
func TestPaperConfigIsPaperTestbed(t *testing.T) {
	tp, err := madeleine.ParseTopology(paperConfig)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := madeleine.RouteTable(tp), madeleine.RouteTable(madeleine.PaperTestbed()); got != want {
		t.Errorf("routes differ:\n%s\nvs\n%s", got, want)
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"madgo/internal/fwd.(*gateway).relay":        "fwd",
		"madgo/internal/vtime/vsync.(*Mutex).Lock":   "vtime",
		"madgo/internal/drivers/bip.(*driver).Send":  "mad",
		"madgo/internal/topo.Parse":                  "other",
		"madgo.(*System).Run":                        "other",
		"main.(*rig).send":                           "bench",
		"runtime.mallocgc":                           "",
		"madgo/internal/flight.(*Ring).Record.func1": "flight",
	}
	keys := make([]string, 0, len(cases))
	for k := range cases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, fn := range keys {
		if got := layerOf(fn); got != cases[fn] {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, cases[fn])
		}
	}
}
