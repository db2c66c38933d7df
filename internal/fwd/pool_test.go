package fwd

import (
	"fmt"
	"testing"

	"madgo/internal/vtime/vsync"
)

// The allocation-regression wall for the pooled pipeline: once warm, the
// per-message staging path — stocking the ring from the free list and
// draining it back — must never touch the allocator.

func TestBufPoolZeroAllocSteadyState(t *testing.T) {
	bp := newBufPool(nil)
	const n = 32 * 1024
	bp.put(bp.get(n)) // warmup: the single miss
	if allocs := testing.AllocsPerRun(200, func() {
		bp.put(bp.get(n))
	}); allocs != 0 {
		t.Fatalf("steady-state get/put allocates %.1f times per cycle", allocs)
	}
	if bp.misses != 1 {
		t.Fatalf("misses = %d after warmup + steady state, want 1", bp.misses)
	}
}

func TestBufPoolRingStockDrainZeroAlloc(t *testing.T) {
	// The exact per-message sequence the gateway runs: depth gets pushed
	// through the free channel, then drained back into the pool.
	const depth = 8
	const mtu = 64 * 1024
	bp := newBufPool(nil)
	free := vsync.NewChan[[]byte]("test:free", depth)
	cycle := func() {
		for i := 0; i < depth; i++ {
			free.TrySend(bp.get(mtu))
		}
		for {
			b, ok := free.TryRecv()
			if !ok {
				break
			}
			bp.put(b)
		}
	}
	cycle() // warmup message
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("steady-state stock/drain allocates %.1f times per message", allocs)
	}
	if bp.misses != depth {
		t.Fatalf("misses = %d, want the warmup ring of %d", bp.misses, depth)
	}
	if bp.gets != bp.puts {
		t.Fatalf("ring leaked buffers: gets %d != puts %d", bp.gets, bp.puts)
	}
}

func TestBufPoolCapacityClasses(t *testing.T) {
	bp := newBufPool(nil)
	big := bp.get(1000)
	bp.put(big)
	// A smaller request reuses the larger buffer sliced down.
	small := bp.get(10)
	if len(small) != 10 || cap(small) < 1000 {
		t.Fatalf("small get: len %d cap %d, want reuse of the 1000-cap buffer", len(small), cap(small))
	}
	if bp.misses != 1 {
		t.Fatalf("misses = %d, want 1", bp.misses)
	}
	bp.put(small)
	// A larger request cannot reuse it and must allocate.
	huge := bp.get(2000)
	if len(huge) != 2000 {
		t.Fatalf("huge get: len %d", len(huge))
	}
	if bp.misses != 2 {
		t.Fatalf("misses = %d, want 2", bp.misses)
	}
	// Nil puts are dropped, not pooled.
	bp.put(nil)
	if len(bp.bufs) != 1 {
		t.Fatalf("nil put changed the pool: %d buffers", len(bp.bufs))
	}
}

func TestBufPoolCustomAllocator(t *testing.T) {
	calls := 0
	bp := newBufPool(func(n int) []byte {
		calls++
		return make([]byte, n)
	})
	bp.put(bp.get(100))
	bp.put(bp.get(100))
	if calls != 1 {
		t.Fatalf("allocator called %d times, want 1", calls)
	}
	var s PoolStats
	s.observe(bp)
	if s.Gets != 2 || s.Puts != 2 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want gets 2 puts 2 misses 1", s)
	}
}

// The relay pipelines name their sender processes, branch queues and trace
// actors through Gateway.label: the names must read exactly as the format
// spells them, and a repeated path must cost no formatting.
func TestGatewayLabelFormatsOnce(t *testing.T) {
	g := &Gateway{name: "gw", labels: make(map[[2]string]string)}
	for _, c := range [][2]string{
		{"gwsend:%s:%s", "myri0"}, {"%s:send:%s", "myri0"}, {"%s:recv:%s", "sci0"},
		{"gwmq:%s>%s", "b1"}, {"gwmsend:%s>%s", "b1"},
	} {
		if got, want := g.label(c[0], c[1]), fmt.Sprintf(c[0], "gw", c[1]); got != want {
			t.Errorf("label(%q, %q) = %q, want %q", c[0], c[1], got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { g.label("gwsend:%s:%s", "myri0") }); n != 0 {
		t.Fatalf("a cached label allocates %.1f times, want 0", n)
	}
}
