// Package coll implements classic collective operations — barrier,
// broadcast, reduce, allreduce, gather — on top of the forwarding virtual
// channel.
//
// The point of the package is the paper's transparency claim: the
// collectives are written exactly as they would be for a flat cluster —
// they neither know nor care that some of their tree edges cross gateways.
// The virtual channel routes each edge directly or through the forwarding
// pipeline as the topology demands ("On top of Madeleine, high-level
// traditional routing mechanisms can easily and efficiently be
// implemented").
//
// Fan-out halves (broadcast, the barrier release) use the channel's
// gateway-native multicast when available: the root issues one
// BeginMulticast and the distribution tree's gateways replicate each
// fragment in the network, so the payload crosses each inter-cluster link
// once no matter how many members sit behind it. In reliable mode — where
// multicast is unavailable — the same operations fall back to binomial
// trees over point-to-point sends, byte-identical in result.
package coll

import (
	"encoding/binary"
	"fmt"
	"math"

	"madgo/internal/fwd"
	"madgo/internal/mad"
	"madgo/internal/vtime"
)

// Comm is a communicator: an ordered group of nodes on one virtual channel.
// Every member must create its own Comm with the same member list and call
// each collective the same number of times in the same order, as in MPI.
type Comm struct {
	vc      *fwd.VirtualChannel
	members []string
	me      int
	hdr     [5]byte // receive scratch: the tag block, then the length block
}

// New creates the communicator view of node self. The member list must be
// identical (same order) on every participant.
func New(vc *fwd.VirtualChannel, members []string, self string) (*Comm, error) {
	if len(members) < 2 {
		return nil, fmt.Errorf("coll: communicator needs at least 2 members")
	}
	seen := make(map[string]bool, len(members))
	me := -1
	for i, m := range members {
		if seen[m] {
			return nil, fmt.Errorf("coll: duplicate member %s", m)
		}
		seen[m] = true
		if m == self {
			me = i
		}
	}
	if me < 0 {
		return nil, fmt.Errorf("coll: %s is not a member", self)
	}
	return &Comm{vc: vc, members: members, me: me}, nil
}

// Rank returns the caller's index within the communicator.
func (c *Comm) Rank() int { return c.me }

// Size returns the number of members.
func (c *Comm) Size() int { return len(c.members) }

// send transmits one tagged block to the member with index to.
func (c *Comm) send(p *vtime.Proc, to int, tag byte, data []byte) {
	px := c.vc.At(c.members[c.me]).BeginPacking(p, c.members[to])
	px.Pack(p, []byte{tag}, mad.SendCheaper, mad.ReceiveExpress)
	hdr := make([]byte, 4)
	binary.LittleEndian.PutUint32(hdr, uint32(len(data)))
	px.Pack(p, hdr, mad.SendCheaper, mad.ReceiveExpress)
	px.Pack(p, data, mad.SendCheaper, mad.ReceiveCheaper)
	px.EndPacking(p)
}

// mcastSend transmits one tagged block to every member of to at once via
// the channel's gateway-native multicast, with the exact block structure of
// send so the receivers' recv is oblivious to how the message travelled.
func (c *Comm) mcastSend(p *vtime.Proc, to []string, tag byte, data []byte) {
	px := c.vc.At(c.members[c.me]).BeginMulticast(p, to...)
	px.Pack(p, []byte{tag}, mad.SendCheaper, mad.ReceiveExpress)
	hdr := make([]byte, 4)
	binary.LittleEndian.PutUint32(hdr, uint32(len(data)))
	px.Pack(p, hdr, mad.SendCheaper, mad.ReceiveExpress)
	px.Pack(p, data, mad.SendCheaper, mad.ReceiveCheaper)
	px.EndPacking(p)
}

// others returns every member name except the caller's.
func (c *Comm) others() []string {
	out := make([]string, 0, len(c.members)-1)
	for i, m := range c.members {
		if i != c.me {
			out = append(out, m)
		}
	}
	return out
}

// recvHeader begins unpacking one message and reads its two express
// blocks: the tag, checked against want, and the payload length. The
// caller unpacks the payload and ends the unpacking.
func (c *Comm) recvHeader(p *vtime.Proc, want byte) (*fwd.Unpacking, int) {
	u := c.vc.At(c.members[c.me]).BeginUnpacking(p)
	tag, size := c.hdr[:1], c.hdr[1:]
	u.Unpack(p, tag, mad.SendCheaper, mad.ReceiveExpress)
	if tag[0] != want {
		panic(fmt.Sprintf("coll: tag %d arrived while waiting for %d — collectives called out of order", tag[0], want))
	}
	u.Unpack(p, size, mad.SendCheaper, mad.ReceiveExpress)
	return u, int(binary.LittleEndian.Uint32(size))
}

// recv blocks for one message and returns its payload in a fresh slice;
// the tag is checked against want.
func (c *Comm) recv(p *vtime.Proc, want byte) []byte {
	u, n := c.recvHeader(p, want)
	data := make([]byte, n)
	u.Unpack(p, data, mad.SendCheaper, mad.ReceiveCheaper)
	u.EndUnpacking(p)
	return data
}

// recvBcastInto blocks for one broadcast message and unpacks its payload
// straight into dst, whose length must match the sender's: every member of
// a broadcast passes a buffer of the same length.
func (c *Comm) recvBcastInto(p *vtime.Proc, dst []byte) {
	u, n := c.recvHeader(p, tagBcast)
	if n != len(dst) {
		panic(fmt.Sprintf("coll: broadcast buffers disagree (%d vs %d bytes)", n, len(dst)))
	}
	u.Unpack(p, dst, mad.SendCheaper, mad.ReceiveCheaper)
	u.EndUnpacking(p)
}

// Collective tags.
const (
	tagBarrier byte = iota + 1
	tagBcast
	tagReduce
	tagGather
)

// Barrier blocks until every member has entered it: a flat gather to rank 0
// followed by the release — one multicast when the channel supports it, a
// per-member send otherwise.
func (c *Comm) Barrier(p *vtime.Proc) {
	if c.me == 0 {
		for i := 1; i < len(c.members); i++ {
			c.recv(p, tagBarrier)
		}
		if c.vc.CanMulticast() {
			c.mcastSend(p, c.others(), tagBarrier, nil)
			return
		}
		for i := 1; i < len(c.members); i++ {
			c.send(p, i, tagBarrier, nil)
		}
		return
	}
	c.send(p, 0, tagBarrier, nil)
	c.recv(p, tagBarrier)
}

// Broadcast distributes root's buffer to every member; every member passes
// a buffer of the same length and returns with it filled. On a multicast-
// capable channel the root sends once and the network's distribution tree
// replicates; in reliable mode the members relay along a binomial tree
// rooted at root.
func (c *Comm) Broadcast(p *vtime.Proc, root int, data []byte) {
	n := len(c.members)
	if root < 0 || root >= n {
		panic("coll: broadcast root out of range")
	}
	if c.vc.CanMulticast() {
		if c.me == root {
			c.mcastSend(p, c.others(), tagBcast, data)
			return
		}
		c.recvBcastInto(p, data)
		return
	}
	// Rotate so the root is virtual rank 0.
	vrank := (c.me - root + n) % n
	if vrank != 0 {
		// Receive from the parent (vrank minus its lowest set bit).
		c.recvBcastInto(p, data)
	}
	// Forward down the binomial tree: a rank that joined at its lowest
	// set bit `low` owns the children vrank+m for every power of two
	// m < low; the root owns all of them. Largest child first, so deep
	// subtrees start early.
	low := vrank & (-vrank)
	if vrank == 0 {
		low = 1
		for low < n {
			low <<= 1
		}
	}
	for mask := low >> 1; mask >= 1; mask >>= 1 {
		if vrank+mask < n {
			c.send(p, (vrank+mask+root)%n, tagBcast, data)
		}
	}
}

// Op is a reduction operator over float64 vectors.
type Op func(acc, in []float64)

// Sum accumulates element-wise sums.
func Sum(acc, in []float64) {
	for i := range acc {
		acc[i] += in[i]
	}
}

// Max keeps element-wise maxima.
func Max(acc, in []float64) {
	for i := range acc {
		if in[i] > acc[i] {
			acc[i] = in[i]
		}
	}
}

// Min keeps element-wise minima.
func Min(acc, in []float64) {
	for i := range acc {
		if in[i] < acc[i] {
			acc[i] = in[i]
		}
	}
}

func encodeF64(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

func decodeF64(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// Reduce combines every member's vector with op; the result lands on root
// (other members receive nil). Binomial-tree combining: log₂(n) rounds.
func (c *Comm) Reduce(p *vtime.Proc, root int, in []float64, op Op) []float64 {
	n := len(c.members)
	if root < 0 || root >= n {
		panic("coll: reduce root out of range")
	}
	vrank := (c.me - root + n) % n
	acc := append([]float64(nil), in...)
	for mask := 1; mask < n; mask <<= 1 {
		if vrank&mask != 0 {
			// Send my partial to the parent and leave.
			c.send(p, (vrank-mask+root)%n, tagReduce, encodeF64(acc))
			return nil
		}
		if vrank+mask < n {
			part := decodeF64(c.recv(p, tagReduce))
			if len(part) != len(acc) {
				panic("coll: reduce vectors disagree in length")
			}
			op(acc, part)
		}
	}
	if vrank != 0 {
		return nil
	}
	return acc
}

// AllReduce is Reduce to rank 0 followed by a Broadcast of the result;
// every member returns the combined vector.
func (c *Comm) AllReduce(p *vtime.Proc, in []float64, op Op) []float64 {
	res := c.Reduce(p, 0, in, op)
	buf := make([]byte, 8*len(in))
	if c.me == 0 {
		copy(buf, encodeF64(res))
	}
	c.Broadcast(p, 0, buf)
	return decodeF64(buf)
}

// Gather collects every member's (variable-length) buffer on root, indexed
// by member rank; other members receive nil.
func (c *Comm) Gather(p *vtime.Proc, root int, in []byte) [][]byte {
	if root < 0 || root >= len(c.members) {
		panic("coll: gather root out of range")
	}
	if c.me != root {
		c.send(p, root, tagGather, in)
		return nil
	}
	out := make([][]byte, len(c.members))
	out[root] = append([]byte(nil), in...)
	// Flat gather: accept in arrival order, senders identified by the
	// unpacking's origin rank.
	for k := 0; k < len(c.members)-1; k++ {
		u, n := c.recvHeader(p, tagGather)
		data := make([]byte, n)
		u.Unpack(p, data, mad.SendCheaper, mad.ReceiveCheaper)
		from := u.From()
		u.EndUnpacking(p)
		idx := c.indexOfRank(from)
		if idx < 0 || out[idx] != nil {
			panic("coll: gather received from an unexpected member")
		}
		out[idx] = data
	}
	return out
}

func (c *Comm) indexOfRank(r mad.Rank) int {
	for i, m := range c.members {
		if c.vc.NodeRank(m) == r {
			return i
		}
	}
	return -1
}
