package fluid

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"madgo/internal/vtime"
)

// referenceRates is the map-and-sort water-filling allocator computeRates
// replaced, kept as the oracle for the scratch-state version: it copies and
// sorts the flow list and keeps demand, remaining capacity and flow counts
// in maps. It returns the rates instead of storing them.
func referenceRates(e *Engine) map[*Flow]float64 {
	rates := make(map[*Flow]float64, len(e.flows))
	if len(e.flows) == 0 {
		return rates
	}
	flows := make([]*Flow, len(e.flows))
	copy(flows, e.flows)
	sort.Slice(flows, func(i, j int) bool { return flows[i].id < flows[j].id })

	demand := make(map[*Flow]float64, len(flows))
	for _, f := range flows {
		d := f.demand
		for _, h := range f.route {
			if h.R.adjust != nil {
				d *= h.R.adjust(Presence{Flow: f, Class: h.Class}, h.R.flows)
			}
		}
		demand[f] = d
	}

	capLeft := make(map[*Resource]float64)
	count := make(map[*Resource]int)
	for _, f := range flows {
		for _, h := range f.route {
			if _, seen := capLeft[h.R]; !seen {
				capLeft[h.R] = h.R.capacity
				count[h.R] = 0
			}
			count[h.R]++
		}
	}

	unfrozen := flows
	for len(unfrozen) > 0 {
		limits := make([]float64, len(unfrozen))
		lmin := math.Inf(1)
		for i, f := range unfrozen {
			l := demand[f]
			for _, h := range f.route {
				share := capLeft[h.R] / float64(count[h.R])
				if share < l {
					l = share
				}
			}
			limits[i] = l
			if l < lmin {
				lmin = l
			}
		}
		var rest []*Flow
		for i, f := range unfrozen {
			if limits[i] <= lmin*(1+1e-12) {
				rates[f] = lmin
				for _, h := range f.route {
					capLeft[h.R] -= lmin
					if capLeft[h.R] < 0 {
						capLeft[h.R] = 0
					}
					count[h.R]--
				}
			} else {
				rest = append(rest, f)
			}
		}
		unfrozen = rest
	}
	return rates
}

// pciArbitration is the PCI policy of the hardware model (package hw, which
// imports this one): a PIO transaction progresses at factor while any DMA
// transaction is active on the bus.
func pciArbitration(factor float64) AdjustFunc {
	return func(self Presence, active []Presence) float64 {
		if self.Class != ClassPIO {
			return 1
		}
		for _, a := range active {
			if a.Class == ClassDMA {
				return factor
			}
		}
		return 1
	}
}

// rateChecker compares the engine's rates with the reference allocator's.
type rateChecker struct {
	t          *testing.T
	e          *Engine
	seed       int64
	checks     int // flow rates compared
	arbitrated int // comparisons where some arbitration multiplier was not 1
}

func (c *rateChecker) check(where string) {
	c.t.Helper()
	want := referenceRates(c.e)
	for _, f := range c.e.flows {
		if math.Float64bits(f.rate) != math.Float64bits(want[f]) {
			c.t.Fatalf("seed %d, %s at %v: flow %s rate %v, reference %v",
				c.seed, where, c.e.sim.Now(), f.name, f.rate, want[f])
		}
		c.checks++
		if f.effDemand != f.demand {
			c.arbitrated++
		}
	}
}

// TestRatesMatchReferenceAllocator runs seeded random flow sets — shared
// and private resources, PCI DMA/PIO arbitration, routes of one to four
// hops, starts bunched on a coarse grid so they overlap with completions,
// blocking transfers next to callback flows, and CancelOn faults — and
// requires every rate the engine allocates to be bit-identical to the
// reference allocator's for the same flow set.
func TestRatesMatchReferenceAllocator(t *testing.T) {
	total := rateChecker{}
	classes := []Class{ClassDMA, ClassPIO, ClassWire, ClassCPU}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := vtime.New()
		e := NewEngine(s)
		c := &rateChecker{t: t, e: e, seed: seed}

		var shared []*Resource
		for i, n := 0, 2+rng.Intn(8); i < n; i++ {
			var adjust AdjustFunc
			if rng.Intn(3) == 0 {
				adjust = pciArbitration(0.5)
			}
			shared = append(shared, e.NewResource("shared", float64(10+rng.Intn(190))*MB, adjust))
		}
		nflows := 2 + rng.Intn(40)
		finished := 0
		for i := 0; i < nflows; i++ {
			var route []Hop
			for h, n := 0, 1+rng.Intn(4); h < n; h++ {
				r := shared[rng.Intn(len(shared))]
				if rng.Intn(5) == 0 {
					r = e.NewResource("private", float64(10+rng.Intn(190))*MB, nil)
				}
				route = append(route, Hop{R: r, Class: classes[rng.Intn(len(classes))]})
			}
			spec := Spec{
				Name:   "f",
				Class:  route[0].Class,
				Demand: float64(5+rng.Intn(100)) * MB,
				Bytes:  int64(1+rng.Intn(1000)) * 1000,
				Route:  route,
			}
			start := vtime.Time(rng.Intn(10)) * vtime.Time(500*vtime.Microsecond)
			if rng.Intn(2) == 0 {
				s.At(start, func() {
					e.Start(spec, func() {
						finished++
						c.check("completion callback")
					})
					c.check("start")
				})
				continue
			}
			s.Spawn("xfer", func(p *vtime.Proc) {
				p.Sleep(vtime.Since(start, 0))
				e.Transfer(p, spec)
				finished++
				c.check("blocking transfer")
			})
		}
		for i, n := 0, rng.Intn(4); i < n; i++ {
			r := shared[rng.Intn(len(shared))]
			s.At(vtime.Time(rng.Intn(6000))*vtime.Time(vtime.Microsecond), func() {
				if e.CancelOn(r) > 0 {
					c.check("cancel")
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if finished != nflows {
			t.Fatalf("seed %d: %d of %d flows finished", seed, finished, nflows)
		}
		if e.ActiveFlows() != 0 {
			t.Fatalf("seed %d: %d flows still active", seed, e.ActiveFlows())
		}
		total.checks += c.checks
		total.arbitrated += c.arbitrated
	}
	if total.checks < 1000 || total.arbitrated < 50 {
		t.Fatalf("only %d rates compared (%d under arbitration): flow sets too small", total.checks, total.arbitrated)
	}
}
