package vtime

import "fmt"

type procState int

const (
	stateNew procState = iota
	stateScheduled
	stateRunning
	stateParked
	stateDone
)

// proc is the internal process record. The public handle is Proc.
type proc struct {
	sim     *Sim
	id      int
	name    string
	co      *coro // runs the body; nil once the process is done
	state   procState
	gen     uint64 // bumped on every park; stale wake events are ignored
	waiting string // human-readable blocking reason, for deadlock reports
	daemon  bool   // daemons may remain blocked when the simulation ends
	joiners []*proc
}

// Proc is the handle a simulated process uses to interact with virtual
// time: sleeping, parking, and spawning further processes. Every blocking
// operation in the library takes the caller's Proc.
//
// A Proc must only be used from its own process body while that body holds
// control (which is always the case in straight-line process code).
type Proc struct {
	p *proc
}

// Spawn creates a process executing fn and schedules it to start at the
// current time. It may be called before Run or from inside a running
// process.
func (s *Sim) Spawn(name string, fn func(*Proc)) *Proc {
	s.nextID++
	p := &proc{
		sim:   s,
		id:    s.nextID,
		name:  name,
		state: stateScheduled,
	}
	if n := len(s.free); n > 0 {
		p.co = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		p.co = newCoro()
	}
	s.live[p.id] = p
	handle := &Proc{p: p}
	p.co.fn, p.co.pr = fn, handle
	s.schedule(s.now, p, p.gen, nil, nil)
	return handle
}

// SpawnDaemon creates a process like Spawn, but marks it as a daemon:
// service loops (channel pollers, gateway forwarding threads) that block
// forever by design. A simulation whose only remaining processes are
// blocked daemons terminates cleanly instead of reporting a deadlock.
func (s *Sim) SpawnDaemon(name string, fn func(*Proc)) *Proc {
	p := s.Spawn(name, fn)
	p.p.daemon = true
	return p
}

// Name returns the process name given at Spawn.
func (pr *Proc) Name() string { return pr.p.name }

// Sim returns the simulation this process belongs to.
func (pr *Proc) Sim() *Sim { return pr.p.sim }

// Now returns the current virtual time.
func (pr *Proc) Now() Time { return pr.p.sim.now }

// checkCurrent panics unless the process is the one the scheduler is
// currently running; calling blocking operations from the wrong goroutine is
// always a programming error and would corrupt the simulation.
func (pr *Proc) checkCurrent(op string) {
	if pr.p.sim.current != pr.p {
		panic(fmt.Sprintf("vtime: %s called on process %q which is not running", op, pr.p.name))
	}
}

// park gives up control without a scheduled wake; some other process or
// callback must call unpark. The reason appears in deadlock reports.
func (pr *Proc) park(reason string) {
	pr.checkCurrent("park")
	p := pr.p
	p.state = stateParked
	p.gen++
	p.waiting = reason
	p.co.yield(false)
	p.waiting = ""
}

// unpark schedules a parked process to resume at the current time. It is
// exported within the package for the vsync primitives via Waker.
func (pr *Proc) unpark() {
	pr.p.sim.ready(pr.p)
}

// Parked reports whether the process is currently parked (blocked without a
// scheduled wake).
func (pr *Proc) Parked() bool { return pr.p.state == stateParked }

// Done reports whether the process function has returned.
func (pr *Proc) Done() bool { return pr.p.state == stateDone }

// Sleep suspends the process for d of virtual time. d must be nonnegative;
// Sleep(0) yields to other processes scheduled at the same instant.
func (pr *Proc) Sleep(d Duration) {
	pr.checkCurrent("Sleep")
	if d < 0 {
		panic("vtime: Sleep with negative duration")
	}
	p := pr.p
	p.state = stateParked
	p.gen++
	p.waiting = "sleep"
	p.sim.schedule(p.sim.now.Add(d), p, p.gen, nil, nil)
	p.state = stateScheduled
	p.co.yield(false)
	p.waiting = ""
}

// Yield lets every other process scheduled at the current instant run before
// this one continues.
func (pr *Proc) Yield() { pr.Sleep(0) }

// Block parks the process until another process or callback wakes it through
// the returned Waker. The reason string shows up in deadlock reports.
//
// Typical use:
//
//	w := p.Blocker("await reply")
//	registerWaiter(w)
//	w.Wait()
func (pr *Proc) Blocker(reason string) *Waker {
	pr.checkCurrent("Blocker")
	return &Waker{pr: pr, reason: reason}
}

// Waker is a one-shot rendezvous between a process about to block and the
// party that will wake it. Wake may be called before or after Wait; the
// pairing is race-free because the simulation is single-threaded.
type Waker struct {
	pr     *Proc
	reason string
	woken  bool
	parked bool
}

// Wait parks the owning process until Wake has been called. If Wake already
// happened, Wait returns immediately (still yielding no time).
func (w *Waker) Wait() {
	if w.woken {
		return
	}
	w.parked = true
	w.pr.park(w.reason)
	w.parked = false
}

// Proc returns the process that owns this waker.
func (w *Waker) Proc() *Proc { return w.pr }

// Wake releases the waiter. Waking twice panics: Wakers are strictly
// one-shot so protocol errors surface immediately.
func (w *Waker) Wake() {
	if w.woken {
		panic("vtime: Waker woken twice")
	}
	w.woken = true
	if w.parked {
		w.pr.unpark()
	}
}

// Join blocks until other has finished. Joining a finished process returns
// immediately.
func (pr *Proc) Join(other *Proc) {
	pr.checkCurrent("Join")
	if other.p.state == stateDone {
		return
	}
	other.p.joiners = append(other.p.joiners, pr.p)
	pr.park("join " + other.p.name)
}
