//go:build go1.23

package vtime

import "iter"

// coro runs process bodies on a runtime coroutine. Resuming a process
// switches straight to its coroutine and parking switches straight back:
// no channel operation and no trip through the Go scheduler's run queues.
//
// A coroutine loops over bodies. When one returns, the coroutine yields
// true and waits on the Sim's free list until a later Spawn hands it the
// next body, so the goroutine and its grown stack are reused. A body that
// panics ends the loop: its coroutine retires and the panic value stays in
// panicked for the scheduler to report.
type coro struct {
	next     func() (done, alive bool)
	stop     func()
	yield    func(done bool) bool
	fn       func(*Proc)
	pr       *Proc
	panicked any
}

func newCoro() *coro {
	c := &coro{}
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

func (c *coro) loop(yield func(bool) bool) {
	c.yield = yield
	for {
		fn, pr := c.fn, c.pr
		c.fn, c.pr = nil, nil
		if c.panicked = runBody(fn, pr); c.panicked != nil {
			return
		}
		if !yield(true) {
			return // released from the free list
		}
	}
}

// runBody runs one process body and returns the value it panicked with, or
// nil. A runtime.Goexit in the body is not recovered: it ends the
// coroutine, and the pending next call re-raises it in the scheduler.
func runBody(fn func(*Proc), pr *Proc) (panicked any) {
	defer func() { panicked = recover() }()
	fn(pr)
	return nil
}
