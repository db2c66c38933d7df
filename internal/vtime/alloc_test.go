package vtime

import "testing"

// Every simulated message costs a handful of scheduler events, so the
// steady-state event path must not allocate: events live by value in the
// queue and AtArg carries its argument in the event.

// countFired is a callback that counts itself through its argument.
func countFired(arg any, _ uint64) { *arg.(*int)++ }

func TestScheduledCallbackZeroAllocs(t *testing.T) {
	s := New()
	fired := 0
	tick := func() { fired++ }
	// Warm up: grow the queue to its steady-state size.
	for i := 0; i < 64; i++ {
		s.AtArg(s.Now().Add(Duration(i)), countFired, &fired, 0)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.AtArg(s.Now().Add(Microsecond), countFired, &fired, 0)
		s.After(Microsecond, tick)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("scheduling and firing two callbacks allocates %.1f times, want 0", allocs)
	}
	if want := 64 + 2*1001; fired != want {
		t.Fatalf("fired %d callbacks, want %d", fired, want)
	}
}

func TestSleepResumeZeroAllocs(t *testing.T) {
	s := New()
	resumed := 0
	s.SpawnDaemon("sleeper", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
			resumed++
		}
	})
	deadline := Time(0)
	step := func() {
		deadline = deadline.Add(Microsecond)
		if err := s.RunUntil(deadline); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		step()
	}
	before := resumed
	allocs := testing.AllocsPerRun(1000, step)
	if allocs != 0 {
		t.Fatalf("one Sleep resume allocates %.1f times, want 0", allocs)
	}
	if got := resumed - before; got != 1001 {
		t.Fatalf("%d resumes in 1001 steps, want one per step", got)
	}
}

// BenchmarkSimEvent measures the host cost of one scheduled and fired
// callback with 1024 events pending, so every push and pop walks a heap of
// realistic depth.
func BenchmarkSimEvent(b *testing.B) {
	s := New()
	left := b.N
	var fire func(arg any, n uint64)
	fire = func(_ any, n uint64) {
		if left > 0 {
			left--
			// A deterministic spread of delays keeps the heap shuffled.
			n = n*6364136223846793005 + 1442695040888963407
			s.AtArg(s.Now().Add(Duration(n>>54)), fire, nil, n)
		}
	}
	for i := 0; i < 1024; i++ {
		s.AtArg(Time(i), fire, nil, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
