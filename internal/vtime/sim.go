package vtime

import (
	"fmt"
	"sort"
	"strings"
)

// event is a scheduled occurrence: either resuming a parked process or
// running a callback in scheduler context. Events are stored by value in
// the queue, so scheduling one allocates nothing.
type event struct {
	at  Time
	seq uint64 // FIFO tiebreaker for simultaneous events
	p   *proc  // process to resume, nil for callbacks
	gen uint64 // park generation guard (stale wakes are dropped), or fn's n
	fn  func(arg any, n uint64)
	arg any
}

// before is the queue order: by time, then by scheduling sequence. seq is
// unique, so the order is total and every correct heap pops the same
// sequence.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events ordered by before.
type eventHeap []event

// push and pop move a hole through the heap instead of swapping, so each
// level costs one event copy.
func (h *eventHeap) push(e event) {
	*h = append(*h, event{})
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop references held by the vacated slot
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(&q[c]) {
			c = r
		}
		if !q[c].before(&last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}

// Sim is a discrete-event simulation. The zero value is not usable; create
// simulations with New.
//
// All processes of a Sim run under a single scheduler, one at a time, so no
// locking is needed anywhere in simulation code.
type Sim struct {
	now     Time
	seq     uint64
	events  eventHeap
	live    map[int]*proc
	free    []*coro // coroutines of finished processes, reused by Spawn
	nextID  int
	running bool
	current *proc
	idle    []func() // hooks run when the event queue drains (diagnostics)
}

// New creates an empty simulation with the clock at zero.
func New() *Sim {
	return &Sim{live: make(map[int]*proc)}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// schedule enqueues an event at time at (>= now).
func (s *Sim) schedule(at Time, p *proc, gen uint64, fn func(any, uint64), arg any) {
	if at < s.now {
		panic(fmt.Sprintf("vtime: scheduling into the past (%v < %v)", at, s.now))
	}
	s.seq++
	s.events.push(event{at: at, seq: s.seq, p: p, gen: gen, fn: fn, arg: arg})
}

// At schedules fn to run in scheduler context at absolute time at. The
// callback must not block; it is intended for bookkeeping such as fluid-flow
// completions. Callbacks may schedule further events and wake processes.
func (s *Sim) At(at Time, fn func()) {
	s.schedule(at, nil, 0, callFunc, fn)
}

// callFunc runs a callback scheduled through At.
func callFunc(fn any, _ uint64) { fn.(func())() }

// AtArg schedules fn(arg, n) like At schedules a closure. The argument
// travels in the event, so a hot path that passes a pointer for arg and a
// package-level function or a method value built once for fn schedules
// without allocating, where a closure capturing the same state would be
// heap-allocated on every call.
func (s *Sim) AtArg(at Time, fn func(arg any, n uint64), arg any, n uint64) {
	s.schedule(at, nil, n, fn, arg)
}

// AfterArg schedules fn(arg, n) d from now. See AtArg.
func (s *Sim) AfterArg(d Duration, fn func(arg any, n uint64), arg any, n uint64) {
	if d < 0 {
		panic("vtime: AfterArg with negative duration")
	}
	s.AtArg(s.now.Add(d), fn, arg, n)
}

// After schedules fn to run d from now. See At.
func (s *Sim) After(d Duration, fn func()) {
	if d < 0 {
		panic("vtime: After with negative duration")
	}
	s.At(s.now.Add(d), fn)
}

// OnIdle registers a diagnostic hook invoked once when the event queue
// drains while processes are still alive (i.e. on deadlock detection),
// before Run returns the DeadlockError.
func (s *Sim) OnIdle(fn func()) { s.idle = append(s.idle, fn) }

// Abort is a panic value that ends the simulation cleanly: a process that
// panics with an Abort makes Run return Err instead of re-raising the panic
// in the caller. The reliability layer uses it to surface typed delivery
// errors (a destination that stayed unreachable through every retry) without
// either crashing the host program or leaving the simulation deadlocked.
type Abort struct{ Err error }

// DeadlockError reports that the event queue drained while processes were
// still blocked. It lists the stuck processes and what they were last
// waiting on.
type DeadlockError struct {
	Stuck []string
}

func (e DeadlockError) Error() string {
	return "vtime: deadlock, blocked processes: " + strings.Join(e.Stuck, ", ")
}

// Run executes the simulation until no events remain. It returns nil when
// every process has finished, and a DeadlockError when processes remain
// blocked with nothing left to wake them. A panic inside a process is
// re-raised in the caller, annotated with the process name — except an
// Abort, whose error is returned instead.
func (s *Sim) Run() error {
	return s.run(-1)
}

// RunUntil executes the simulation, stopping before the first event
// scheduled after the deadline. Remaining events stay queued; Run or
// RunUntil may be called again. The clock is left at the time of the last
// executed event (it does not jump to the deadline).
func (s *Sim) RunUntil(deadline Time) error {
	return s.run(deadline)
}

func (s *Sim) run(deadline Time) error {
	if s.running {
		panic("vtime: Run called reentrantly")
	}
	s.running = true
	defer func() { s.running = false }()

	for len(s.events) > 0 {
		if deadline >= 0 && s.events[0].at > deadline {
			return nil
		}
		e := s.events.pop()
		s.now = e.at
		if e.fn != nil {
			e.fn(e.arg, e.gen)
			continue
		}
		p := e.p
		if p.state == stateDone || p.gen != e.gen {
			continue // stale wake
		}
		if err := s.resume(p); err != nil {
			return err
		}
	}
	// The queue drained, so nothing runs again unless the host spawns more:
	// end the idle coroutines rather than leave their goroutines behind.
	for i, c := range s.free {
		c.stop()
		s.free[i] = nil
	}
	s.free = s.free[:0]
	var stuck []string
	for _, p := range s.live {
		if !p.daemon {
			stuck = append(stuck, fmt.Sprintf("%s (%s)", p.name, p.waiting))
		}
	}
	if len(stuck) > 0 {
		for _, fn := range s.idle {
			fn()
		}
		sort.Strings(stuck)
		return DeadlockError{Stuck: stuck}
	}
	return nil
}

// resume switches to p's coroutine and returns when p parks or finishes. A
// non-nil error is an Abort raised by the process; it stops the run.
func (s *Sim) resume(p *proc) error {
	p.state = stateRunning
	s.current = p
	c := p.co
	done, alive := c.next()
	s.current = nil
	if !alive {
		// The body panicked, which retired its coroutine.
		p.co = nil
		if ab, ok := c.panicked.(Abort); ok {
			p.state = stateDone
			delete(s.live, p.id)
			return ab.Err
		}
		panic(fmt.Sprintf("vtime: process %q panicked: %v", p.name, c.panicked))
	}
	if done {
		p.state = stateDone
		p.co = nil
		s.free = append(s.free, c)
		delete(s.live, p.id)
		for _, j := range p.joiners {
			s.ready(j)
		}
		p.joiners = nil
	}
	return nil
}

// ready wakes a parked process at the current time (FIFO among same-time
// wakes).
func (s *Sim) ready(p *proc) {
	if p.state != stateParked {
		panic(fmt.Sprintf("vtime: waking process %q which is not parked", p.name))
	}
	p.state = stateScheduled
	s.schedule(s.now, p, p.gen, nil, nil)
}

// Processes returns the number of live (not yet finished) processes.
func (s *Sim) Processes() int { return len(s.live) }
