package vtime

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The scheduler's queue is a hand-written heap of events stored by value.
// These tests run seeded schedules crowded with equal timestamps through
// the real simulation and through a reference model built on
// container/heap, and require the two to execute the same events in the
// same order: by time, then by scheduling sequence.

// refEvent is one event of the reference model.
type refEvent struct {
	at   Time
	seq  uint64
	kind int // refCall, refProc or refStale
	id   int // callback id or process index
}

const (
	refCall = iota
	refProc
	refStale
)

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// orderScript decides what every executed event schedules next. The real
// run and the model consume its generator in execution order, so they stay
// in step exactly as long as they execute the same events in the same
// order.
type orderScript struct {
	rng    *rand.Rand
	nextID int
	budget int // callbacks still allowed to be scheduled
	sleeps []int
}

// delay draws a delay of 0 to 3ns that is zero about half the time, so
// many events share a timestamp.
func (sc *orderScript) delay() Duration {
	if sc.rng.Intn(2) == 0 {
		return 0
	}
	return Duration(sc.rng.Intn(3) + 1)
}

// child is one event a callback or the outer run loop schedules: a
// callback, with its delay and whether it goes through AfterArg or a
// closure, or a stale wake.
type child struct {
	d     Duration
	arg   bool
	stale bool
	id    int
}

// newCallback spends one unit of budget on a new callback.
func (sc *orderScript) newCallback() child {
	sc.budget--
	sc.nextID++
	return child{d: sc.delay(), arg: sc.rng.Intn(2) == 0, id: sc.nextID}
}

// callbackChildren is what an executed callback schedules: one or two
// callbacks while budget lasts, and sometimes a stale wake.
func (sc *orderScript) callbackChildren() []child {
	var out []child
	for n := 1 + sc.rng.Intn(2); n > 0 && sc.budget > 0; n-- {
		out = append(out, sc.newCallback())
	}
	if sc.rng.Intn(4) == 0 {
		out = append(out, child{d: sc.delay(), stale: true})
	}
	return out
}

type orderLog []string

func (l *orderLog) add(at Time, what string) { *l = append(*l, fmt.Sprintf("%d:%s", at, what)) }

// runReal executes the script on a Sim, in RunUntil slices of random width
// with external callbacks injected between slices.
func runReal(seed int64, procs int) orderLog {
	sc := &orderScript{rng: rand.New(rand.NewSource(seed)), budget: 400}
	s := New()
	var log orderLog
	var handles []*Proc
	var schedule func(c child)
	fire := func(arg any, n uint64) {
		log.add(s.Now(), fmt.Sprintf("c%d", n))
		for _, c := range sc.callbackChildren() {
			schedule(c)
		}
	}
	schedule = func(c child) {
		switch {
		case c.stale:
			p := handles[sc.rng.Intn(len(handles))].p
			s.schedule(s.Now().Add(c.d), p, math.MaxUint64, nil, nil)
		case c.arg:
			s.AfterArg(c.d, fire, nil, uint64(c.id))
		default:
			id := c.id
			s.After(c.d, func() { fire(nil, uint64(id)) })
		}
	}
	sc.sleeps = make([]int, procs)
	for i := 0; i < procs; i++ {
		i := i
		sc.sleeps[i] = 6
		handles = append(handles, s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for {
				log.add(p.Now(), fmt.Sprintf("p%d", i))
				if sc.sleeps[i] == 0 {
					return
				}
				sc.sleeps[i]--
				p.Sleep(sc.delay())
			}
		}))
	}
	for k := 0; k < 3; k++ {
		schedule(sc.newCallback())
	}
	for len(s.events) > 0 {
		if err := s.RunUntil(s.Now().Add(Duration(sc.rng.Intn(4)))); err != nil {
			panic(err)
		}
		if sc.budget > 0 && sc.rng.Intn(2) == 0 {
			schedule(sc.newCallback())
		}
	}
	return log
}

// runModel executes the same script on the container/heap reference.
func runModel(seed int64, procs int) orderLog {
	sc := &orderScript{rng: rand.New(rand.NewSource(seed)), budget: 400}
	var (
		h   refHeap
		now Time
		seq uint64
		log orderLog
	)
	push := func(at Time, kind, id int) {
		seq++
		heap.Push(&h, &refEvent{at: at, seq: seq, kind: kind, id: id})
	}
	schedule := func(c child) {
		if c.stale {
			sc.rng.Intn(procs) // the real run draws the stale target
			push(now.Add(c.d), refStale, 0)
			return
		}
		push(now.Add(c.d), refCall, c.id)
	}
	sc.sleeps = make([]int, procs)
	for i := 0; i < procs; i++ {
		sc.sleeps[i] = 6
		push(0, refProc, i)
	}
	for k := 0; k < 3; k++ {
		schedule(sc.newCallback())
	}
	for h.Len() > 0 {
		deadline := now.Add(Duration(sc.rng.Intn(4)))
		for h.Len() > 0 && h[0].at <= deadline {
			e := heap.Pop(&h).(*refEvent)
			now = e.at
			switch e.kind {
			case refCall:
				log.add(now, fmt.Sprintf("c%d", e.id))
				for _, c := range sc.callbackChildren() {
					schedule(c)
				}
			case refProc:
				log.add(now, fmt.Sprintf("p%d", e.id))
				if sc.sleeps[e.id] > 0 {
					sc.sleeps[e.id]--
					push(now.Add(sc.delay()), refProc, e.id)
				}
			}
		}
		if sc.budget > 0 && sc.rng.Intn(2) == 0 {
			schedule(sc.newCallback())
		}
	}
	return log
}

func TestEventOrderMatchesReferenceHeap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		procs := 1 + int(seed%5)
		got, want := runReal(seed, procs), runModel(seed, procs)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d events executed, reference executed %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d is %s, reference pops %s", seed, i, got[i], want[i])
			}
		}
		if len(got) < 50 {
			t.Fatalf("seed %d: only %d events, schedule too small to test ordering", seed, len(got))
		}
	}
}

// TestStaleWakesAreDropped pins the generation guard on its own: a wake
// scheduled under an old park generation must not resume the process.
func TestStaleWakesAreDropped(t *testing.T) {
	s := New()
	var woke []Time
	pr := s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10)
		woke = append(woke, p.Now())
	})
	if err := s.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	s.schedule(5, pr.p, pr.p.gen-1, nil, nil)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 1 || woke[0] != 10 {
		t.Fatalf("sleeper resumed at %v, want once at 10ns", woke)
	}
}
