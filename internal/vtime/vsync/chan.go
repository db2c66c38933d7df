package vsync

import "madgo/internal/vtime"

// Chan is a typed FIFO channel for simulation processes, analogous to a Go
// channel with a fixed capacity. Capacity 0 gives rendezvous semantics: a
// send completes only when a receiver takes the value.
//
// The gateway forwarding engine and the channel polling loops are built on
// Chan: packet mailboxes, free-buffer rings, and request queues.
type Chan[T any] struct {
	name    string
	cap     int
	buf     []T
	senders []chanSender[T]
	recvers []*chanRecver[T]
	closed  bool

	// Deadlock-report reasons of blocked senders and receivers, built on
	// the first block and kept, so later blocking calls build no string.
	sendWait, recvWait string
}

type chanSender[T any] struct {
	w *vtime.Waker
	v T
}

// chanRecver is a blocked receiver; the sender that wakes it fills in the
// value.
type chanRecver[T any] struct {
	w  *vtime.Waker
	v  T
	ok bool
}

// NewChan creates a channel with the given buffer capacity. The name is used
// in panics and deadlock diagnostics.
func NewChan[T any](name string, capacity int) *Chan[T] {
	if capacity < 0 {
		panic("vsync: negative channel capacity")
	}
	return &Chan[T]{name: name, cap: capacity}
}

// Send enqueues v, blocking while the channel is full. Sending on a closed
// channel panics, as with Go channels.
func (c *Chan[T]) Send(p *vtime.Proc, v T) {
	if c.closed {
		panic("vsync: send on closed channel " + c.name)
	}
	// Direct handoff to a waiting receiver.
	if len(c.recvers) > 0 {
		r := c.recvers[0]
		c.recvers = c.recvers[:copy(c.recvers, c.recvers[1:])]
		r.v, r.ok = v, true
		r.w.Wake()
		return
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return
	}
	if c.sendWait == "" {
		c.sendWait = "send " + c.name
	}
	w := p.Blocker(c.sendWait)
	c.senders = append(c.senders, chanSender[T]{w: w, v: v})
	w.Wait()
	if c.closed {
		panic("vsync: channel " + c.name + " closed while sending")
	}
}

// TrySend enqueues v without blocking and reports success.
func (c *Chan[T]) TrySend(v T) bool {
	if c.closed {
		panic("vsync: send on closed channel " + c.name)
	}
	if len(c.recvers) > 0 {
		r := c.recvers[0]
		c.recvers = c.recvers[:copy(c.recvers, c.recvers[1:])]
		r.v, r.ok = v, true
		r.w.Wake()
		return true
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return true
	}
	return false
}

// Recv dequeues a value, blocking while the channel is empty. The second
// result is false when the channel is closed and drained.
func (c *Chan[T]) Recv(p *vtime.Proc) (T, bool) {
	var zero T
	if len(c.buf) > 0 {
		v := c.buf[0]
		c.buf = c.buf[:copy(c.buf, c.buf[1:])]
		c.admitSender()
		return v, true
	}
	// Rendezvous with a blocked sender (capacity 0, or cap>0 with all
	// senders queued behind a full buffer that was just drained).
	if len(c.senders) > 0 {
		s := c.senders[0]
		c.senders = c.senders[:copy(c.senders, c.senders[1:])]
		s.w.Wake()
		return s.v, true
	}
	if c.closed {
		return zero, false
	}
	if c.recvWait == "" {
		c.recvWait = "recv " + c.name
	}
	r := &chanRecver[T]{w: p.Blocker(c.recvWait)}
	c.recvers = append(c.recvers, r)
	r.w.Wait()
	return r.v, r.ok
}

// TryRecv dequeues without blocking; ok is false when nothing was available
// (which does not distinguish empty from closed — use Closed for that).
func (c *Chan[T]) TryRecv() (T, bool) {
	var zero T
	if len(c.buf) > 0 {
		v := c.buf[0]
		c.buf = c.buf[:copy(c.buf, c.buf[1:])]
		c.admitSender()
		return v, true
	}
	if len(c.senders) > 0 {
		s := c.senders[0]
		c.senders = c.senders[:copy(c.senders, c.senders[1:])]
		s.w.Wake()
		return s.v, true
	}
	return zero, false
}

// admitSender moves the longest-blocked sender's value into freed buffer
// space.
func (c *Chan[T]) admitSender() {
	if len(c.senders) > 0 && len(c.buf) < c.cap {
		s := c.senders[0]
		c.senders = c.senders[:copy(c.senders, c.senders[1:])]
		c.buf = append(c.buf, s.v)
		s.w.Wake()
	}
}

// Close marks the channel closed. Blocked receivers are released with
// ok=false; blocked senders panic (their values would be lost silently
// otherwise).
func (c *Chan[T]) Close() {
	if c.closed {
		panic("vsync: double close of channel " + c.name)
	}
	c.closed = true
	rs := c.recvers
	c.recvers = nil
	for _, r := range rs {
		r.ok = false
		r.w.Wake()
	}
	ss := c.senders
	c.senders = nil
	for _, s := range ss {
		s.w.Wake() // sender panics on resume
	}
}

// Closed reports whether Close has been called.
func (c *Chan[T]) Closed() bool { return c.closed }

// Len returns the number of buffered values.
func (c *Chan[T]) Len() int { return len(c.buf) }

// Name returns the channel's diagnostic name.
func (c *Chan[T]) Name() string { return c.name }
