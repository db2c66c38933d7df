// Package fluid models data transfers as fluid flows over shared,
// capacity-limited resources (PCI buses, network wires, NIC engines).
//
// A transfer is a flow of N bytes routed through an ordered set of
// resources; its instantaneous rate is the result of a max-min fair
// allocation subject to per-resource capacities, per-flow demand caps (the
// speed the initiating engine could reach on an idle machine) and
// per-resource arbitration policies (e.g. "PIO transactions progress at half
// speed while a DMA transaction is active", the PCI behaviour measured in
// §3.4 of the paper).
//
// Rates are piecewise constant: they change only when a flow starts or
// finishes, so an entire bandwidth sweep costs a handful of events per
// packet rather than per byte. Progress is integrated lazily at each change.
package fluid

import (
	"fmt"
	"math"

	"madgo/internal/obs"
	"madgo/internal/vtime"
)

// Class tags a flow with the kind of bus/link transaction it performs.
// Resources interpret classes in their arbitration policies; the fluid
// engine itself treats them as opaque.
type Class uint8

// Transaction classes used by the hardware models.
const (
	ClassDMA  Class = iota // card-initiated DMA (Myrinet LANai, SCI ingress)
	ClassPIO               // processor PIO (SCI egress writes)
	ClassWire              // time on a network cable
	ClassCPU               // host memory copies
)

func (c Class) String() string {
	switch c {
	case ClassDMA:
		return "DMA"
	case ClassPIO:
		return "PIO"
	case ClassWire:
		return "wire"
	case ClassCPU:
		return "CPU"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Hop is one step of a flow's route: a resource plus the transaction class
// the flow presents to that resource. The same transfer can be PIO on the
// sender's PCI bus yet a card-initiated DMA write on the receiver's bus —
// exactly the SCI situation in the paper — so the class is per hop, not per
// flow.
type Hop struct {
	R     *Resource
	Class Class
}

// Presence is a flow as seen by one resource: the flow plus the class of its
// hop there.
type Presence struct {
	Flow  *Flow
	Class Class
}

// AdjustFunc is a resource arbitration policy: given one flow's presence and
// every presence currently active on the resource (including self), it
// returns a multiplier applied to the flow's demand. Multipliers from all
// resources on a flow's route compose multiplicatively.
type AdjustFunc func(self Presence, active []Presence) float64

// Resource is a shared capacity: a bus, a wire, a NIC engine.
type Resource struct {
	name     string
	capacity float64 // bytes/second
	adjust   AdjustFunc

	flows  []Presence // active flows through this resource
	served float64    // total bytes moved through this resource (diagnostics)

	// Water-filling state of computeRates, meaningful only during a call:
	// the capacity not yet handed out and the number of unfrozen flow
	// hops through the resource.
	capLeft float64
	count   int
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the resource capacity in bytes per second.
func (r *Resource) Capacity() float64 { return r.capacity }

// BytesServed returns the total number of bytes moved through the resource
// since creation; tests use it for conservation checks and benchmarks for
// utilization reports.
func (r *Resource) BytesServed() float64 { return r.served }

// ActiveFlows returns the number of flows currently routed through the
// resource.
func (r *Resource) ActiveFlows() int { return len(r.flows) }

// Flow is one in-progress transfer.
type Flow struct {
	id        uint64
	name      string
	class     Class   // class of the first hop, for diagnostics
	demand    float64 // nominal engine rate, bytes/s
	remaining float64 // bytes left
	total     float64
	route     []Hop
	rate      float64 // current allocated rate
	updated   vtime.Time
	started   vtime.Time
	waker     *vtime.Waker
	onDone    func()
	canceled  bool

	// effDemand is demand times the arbitration multipliers along the
	// route, recomputed by every computeRates call.
	effDemand float64
}

// Name returns the flow's diagnostic name.
func (f *Flow) Name() string { return f.name }

// Class returns the transaction class of the flow's first hop.
func (f *Flow) Class() Class { return f.class }

// Rate returns the currently allocated rate in bytes/s.
func (f *Flow) Rate() float64 { return f.rate }

// Remaining returns the bytes not yet transferred.
func (f *Flow) Remaining() float64 { return f.remaining }

// Canceled reports whether the flow was torn down by CancelOn before its
// last byte moved (a link-down or node-crash window cut it).
func (f *Flow) Canceled() bool { return f.canceled }

// Engine owns a set of resources and the flows over them.
type Engine struct {
	sim      *vtime.Sim
	nextID   uint64
	flows    []*Flow // active flows in creation (id) order
	timerGen uint64

	// Scratch slices reused across reallocations.
	limits []float64
	rest   []*Flow
	done   []*Flow

	// Metrics, when non-nil, receives flow lifecycle counters and the
	// active-flow gauge (a nil registry records nothing).
	Metrics *obs.Registry
}

// NewEngine creates a fluid engine bound to the simulation clock.
func NewEngine(sim *vtime.Sim) *Engine {
	return &Engine{sim: sim}
}

// NewResource registers a resource with the given capacity in bytes/s.
// adjust may be nil for plain max-min sharing.
func (e *Engine) NewResource(name string, capacity float64, adjust AdjustFunc) *Resource {
	if capacity <= 0 {
		panic("fluid: resource with nonpositive capacity: " + name)
	}
	return &Resource{name: name, capacity: capacity, adjust: adjust}
}

// Spec describes a transfer. Route hops carry their own transaction class;
// the helper Path builds a route where every hop shares Spec.Class.
type Spec struct {
	Name   string
	Class  Class   // default class for Path-built routes; diagnostic otherwise
	Demand float64 // engine's nominal rate, bytes/s; must be > 0
	Bytes  int64   // must be > 0
	Route  []Hop
	// Wait is the reason a process blocked in Transfer gives in deadlock
	// reports; empty means "flow " + Name. Callers that run many
	// transfers under one name build it once, so a transfer does not.
	Wait string
}

// Path builds a route in which every hop presents class c.
func Path(c Class, rs ...*Resource) []Hop {
	hops := make([]Hop, len(rs))
	for i, r := range rs {
		hops[i] = Hop{R: r, Class: c}
	}
	return hops
}

// Transfer moves Spec.Bytes through the route, blocking the calling process
// until the last byte has been delivered. It returns the elapsed virtual
// time.
//
// Zero-byte transfers complete immediately without touching the allocator.
func (e *Engine) Transfer(p *vtime.Proc, spec Spec) vtime.Duration {
	d, _ := e.TransferOK(p, spec)
	return d
}

// TransferOK is Transfer but additionally reports whether the flow ran to
// completion: ok is false when a fault window cancelled it mid-transfer (see
// CancelOn), in which case the bytes must be considered lost.
func (e *Engine) TransferOK(p *vtime.Proc, spec Spec) (vtime.Duration, bool) {
	if spec.Bytes == 0 {
		return 0, true
	}
	f := e.start(spec)
	wait := spec.Wait
	if wait == "" {
		wait = "flow " + spec.Name
	}
	f.waker = p.Blocker(wait)
	f.waker.Wait()
	return vtime.Since(e.sim.Now(), f.started), !f.canceled
}

// Start begins a transfer without blocking; onDone (may be nil) runs in
// scheduler context when the last byte arrives. Most drivers use Transfer;
// Start exists for NIC models that overlap a bus phase with a wire phase
// explicitly.
func (e *Engine) Start(spec Spec, onDone func()) *Flow {
	if spec.Bytes == 0 {
		if onDone != nil {
			e.sim.After(0, onDone)
		}
		return nil
	}
	f := e.start(spec)
	f.onDone = onDone
	return f
}

func (e *Engine) start(spec Spec) *Flow {
	if spec.Bytes < 0 {
		panic("fluid: negative transfer size")
	}
	if spec.Demand <= 0 {
		panic("fluid: transfer with nonpositive demand: " + spec.Name)
	}
	if len(spec.Route) == 0 {
		panic("fluid: transfer with empty route: " + spec.Name)
	}
	e.nextID++
	f := &Flow{
		id:        e.nextID,
		name:      spec.Name,
		class:     spec.Class,
		demand:    spec.Demand,
		remaining: float64(spec.Bytes),
		total:     float64(spec.Bytes),
		route:     spec.Route,
		updated:   e.sim.Now(),
		started:   e.sim.Now(),
	}
	e.integrate()
	e.flows = append(e.flows, f)
	for _, h := range f.route {
		h.R.flows = append(h.R.flows, Presence{Flow: f, Class: h.Class})
	}
	if e.Metrics != nil {
		e.Metrics.Add("madgo_flows_started_total", obs.Labels{"class": spec.Class.String()}, 1)
	}
	e.reallocate()
	return f
}

// integrate advances every active flow's progress to the current instant at
// its previously allocated rate.
func (e *Engine) integrate() {
	now := e.sim.Now()
	for _, f := range e.flows {
		dt := vtime.Since(now, f.updated).Seconds()
		if dt > 0 && f.rate > 0 {
			moved := f.rate * dt
			if moved > f.remaining {
				moved = f.remaining
			}
			f.remaining -= moved
			for _, h := range f.route {
				h.R.served += moved
			}
		}
		f.updated = now
	}
}

// completionEps absorbs float rounding: a flow with fewer than this many
// bytes left is complete.
const completionEps = 1e-3

// reallocate recomputes all rates and schedules the next completion. It must
// run after integrate whenever the flow set changes.
func (e *Engine) reallocate() {
	// Retire completed flows first. The done list is detached from the
	// engine while its wakers and callbacks run, so a callback that
	// starts a new flow (and so reallocates again) cannot overwrite it.
	done := e.done[:0]
	e.done = nil
	live := e.flows[:0]
	for _, f := range e.flows {
		if f.remaining <= completionEps {
			done = append(done, f)
		} else {
			live = append(live, f)
		}
	}
	clear(e.flows[len(live):])
	e.flows = live
	for _, f := range done {
		for _, h := range f.route {
			h.R.flows = removeFlow(h.R.flows, f)
		}
	}

	e.computeRates()
	e.scheduleNextCompletion()
	e.Metrics.Set("madgo_active_flows", nil, float64(len(e.flows)))

	// Wake finishers after the new schedule is in place.
	for _, f := range done {
		f.remaining = 0
		f.rate = 0
		if m := e.Metrics; m != nil {
			labels := obs.Labels{"class": f.class.String()}
			m.Add("madgo_flows_completed_total", labels, 1)
			m.Add("madgo_flow_bytes_total", labels, f.total)
			m.ObserveDuration("madgo_flow_seconds", labels, vtime.Since(e.sim.Now(), f.started))
		}
		f.finish()
	}
	clear(done)
	e.done = done[:0]
}

// finish wakes the flow's waiter and runs its completion callback.
func (f *Flow) finish() {
	if f.waker != nil {
		f.waker.Wake()
		f.waker = nil
	}
	if f.onDone != nil {
		fn := f.onDone
		f.onDone = nil
		fn()
	}
}

func removeFlow(flows []Presence, f *Flow) []Presence {
	for i, g := range flows {
		if g.Flow == f {
			return append(flows[:i], flows[i+1:]...)
		}
	}
	return flows
}

// computeRates runs priority-adjusted max-min (water-filling) over the live
// flows. Deterministic: flows are processed in creation order, which is the
// order of e.flows (start appends, retirement compacts in place), so the
// floating-point operations run in the same order on every call. The
// water-filling state lives on the resources and flows and in the engine's
// scratch slices, so a call allocates nothing once those have grown.
func (e *Engine) computeRates() {
	if len(e.flows) == 0 {
		return
	}
	// Effective demand: nominal demand times the product of arbitration
	// multipliers along the route. The same pass resets the state of
	// every resource in use, which the next pass counts.
	for i, f := range e.flows {
		if i > 0 && e.flows[i-1].id >= f.id {
			panic("fluid: active flows out of creation order")
		}
		d := f.demand
		for _, h := range f.route {
			if h.R.adjust != nil {
				m := h.R.adjust(Presence{Flow: f, Class: h.Class}, h.R.flows)
				if m < 0 {
					panic("fluid: negative arbitration multiplier on " + h.R.name)
				}
				d *= m
			}
			h.R.capLeft = h.R.capacity
			h.R.count = 0
		}
		f.effDemand = d
	}
	for _, f := range e.flows {
		for _, h := range f.route {
			h.R.count++
		}
	}

	unfrozen := append(e.rest[:0], e.flows...)
	e.rest = unfrozen
	for len(unfrozen) > 0 {
		// Per-flow limit against the current snapshot: demand or the
		// tightest fair share on the flow's route.
		limits := e.limits[:0]
		lmin := math.Inf(1)
		for _, f := range unfrozen {
			l := f.effDemand
			for _, h := range f.route {
				share := h.R.capLeft / float64(h.R.count)
				if share < l {
					l = share
				}
			}
			limits = append(limits, l)
			if l < lmin {
				lmin = l
			}
		}
		e.limits = limits
		// Freeze every flow bottlenecked at the minimum; apply capacity
		// updates only after the freeze set is fixed. The survivors are
		// compacted in place: rest never overtakes the flow being read.
		rest := unfrozen[:0]
		for i, f := range unfrozen {
			if limits[i] <= lmin*(1+1e-12) {
				f.rate = lmin
				for _, h := range f.route {
					h.R.capLeft -= lmin
					if h.R.capLeft < 0 {
						h.R.capLeft = 0
					}
					h.R.count--
				}
			} else {
				rest = append(rest, f)
			}
		}
		if len(rest) == len(unfrozen) {
			panic("fluid: water-filling made no progress")
		}
		unfrozen = rest
	}
	clear(e.rest)
}

// scheduleNextCompletion arms a single timer at the earliest flow
// completion. Any later change to the flow set invalidates it: the event
// carries the timer generation it was armed under, and a fired timer whose
// generation is no longer current does nothing.
func (e *Engine) scheduleNextCompletion() {
	e.timerGen++
	if len(e.flows) == 0 {
		return
	}
	eta := vtime.Time(math.MaxInt64)
	for _, f := range e.flows {
		if f.rate <= 0 {
			continue // starved flow; will progress when others finish
		}
		// Ceil to a whole nanosecond so the flow is certainly done when
		// the timer fires.
		d := vtime.Duration(math.Ceil(f.remaining / f.rate * float64(vtime.Second)))
		if t := e.sim.Now().Add(d); t < eta {
			eta = t
		}
	}
	if eta == vtime.Time(math.MaxInt64) {
		panic("fluid: all flows starved — resource capacities misconfigured")
	}
	e.sim.AtArg(eta, completionTimer, e, e.timerGen)
}

// completionTimer fires the completion timer armed under generation gen.
func completionTimer(engine any, gen uint64) {
	e := engine.(*Engine)
	if gen != e.timerGen {
		return
	}
	e.integrate()
	e.reallocate()
}

// ActiveFlows returns the number of in-progress flows (diagnostics).
func (e *Engine) ActiveFlows() int { return len(e.flows) }

// CancelOn tears down every active flow routed through r — the fluid-level
// consequence of a link going down or a host crashing: in-flight transfers
// stop instantly, their waiters wake with the flow marked Canceled, and the
// remaining flows are re-allocated over the freed capacity. It returns the
// number of flows cancelled. Must run in scheduler context (a callback or a
// process), like every engine entry point.
func (e *Engine) CancelOn(r *Resource) int {
	var doomed []*Flow
	for _, f := range e.flows {
		for _, h := range f.route {
			if h.R == r {
				doomed = append(doomed, f)
				break
			}
		}
	}
	if len(doomed) == 0 {
		return 0
	}
	e.integrate()
	for _, f := range doomed {
		f.canceled = true
	}
	live := e.flows[:0]
	for _, f := range e.flows {
		if !f.canceled {
			live = append(live, f)
		}
	}
	clear(e.flows[len(live):])
	e.flows = live
	for _, f := range doomed {
		for _, h := range f.route {
			h.R.flows = removeFlow(h.R.flows, f)
		}
		f.rate = 0
	}
	e.computeRates()
	e.scheduleNextCompletion()
	e.Metrics.Set("madgo_active_flows", nil, float64(len(e.flows)))
	e.Metrics.Add("madgo_flows_canceled_total", nil, float64(len(doomed)))
	for _, f := range doomed {
		f.finish()
	}
	return len(doomed)
}
