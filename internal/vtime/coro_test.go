package vtime

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Processes run on coroutines that finished processes hand on to later
// Spawns; these tests pin what that reuse must and must not carry over.

func TestFinishedCoroutineIsReused(t *testing.T) {
	s := New()
	var firstCo, secondCo *coro
	first := s.Spawn("first", func(p *Proc) {
		firstCo = p.p.co
		p.Sleep(Microsecond)
	})
	var second *Proc
	s.Spawn("spawner", func(p *Proc) {
		p.Join(first)
		second = s.Spawn("second", func(q *Proc) {
			secondCo = q.p.co
			if q.Name() != "second" || q.p.gen != 0 {
				t.Errorf("reused coroutine runs %q at gen %d, want \"second\" at gen 0", q.Name(), q.p.gen)
			}
			if !first.Done() || first.Name() != "first" {
				t.Error("finished process's handle changed when its coroutine was reused")
			}
			q.Sleep(Microsecond)
		})
		p.Join(second)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if firstCo == nil || secondCo != firstCo {
		t.Fatal("the second process did not reuse the first one's coroutine")
	}
	if first.p == second.p {
		t.Fatal("reuse shared the process record; Proc handles must stay per Spawn")
	}
	if !first.Done() || !second.Done() || first.p.co != nil {
		t.Fatal("finished processes must report Done and drop their coroutine")
	}
	if len(s.free) != 0 {
		t.Fatalf("%d idle coroutines left after the queue drained, want 0", len(s.free))
	}
}

func TestPanickedCoroutineIsRetired(t *testing.T) {
	s := New()
	var bomberCo *coro
	s.Spawn("bomber", func(p *Proc) {
		bomberCo = p.p.co
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `process "bomber" panicked: boom`) {
				t.Fatalf("recover = %v", r)
			}
		}()
		_ = s.Run()
	}()
	if len(s.free) != 0 {
		t.Fatal("a panicked process's coroutine went on the free list")
	}
	if _, alive := bomberCo.next(); alive {
		t.Fatal("a panicked process's coroutine is still running")
	}
}

func TestAbortRetiresCoroutineAndRunResumes(t *testing.T) {
	s := New()
	errStop := errors.New("stop")
	var abortCo *coro
	aborter := s.Spawn("aborter", func(p *Proc) {
		abortCo = p.p.co
		p.Sleep(Microsecond)
		panic(Abort{Err: errStop})
	})
	ticks := 0
	s.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(Microsecond)
			ticks++
		}
	})
	if err := s.Run(); !errors.Is(err, errStop) {
		t.Fatalf("Run = %v, want the Abort's error", err)
	}
	if !aborter.Done() || s.Processes() != 1 || ticks != 0 {
		t.Fatalf("after Abort: done=%v live=%d ticks=%d, want true 1 0", aborter.Done(), s.Processes(), ticks)
	}
	for _, c := range s.free {
		if c == abortCo {
			t.Fatal("an aborted process's coroutine went on the free list")
		}
	}
	if _, alive := abortCo.next(); alive {
		t.Fatal("an aborted process's coroutine is still running")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 5 || s.Processes() != 0 || s.Now() != Time(5*Microsecond) {
		t.Fatalf("second Run: ticks=%d live=%d now=%v, want 5 0 5µs", ticks, s.Processes(), s.Now())
	}
}

func TestSpawnFromHostAndProcess(t *testing.T) {
	s := New()
	var log []string
	s.Spawn("host-child", func(p *Proc) {
		log = append(log, "host-child@"+p.Now().String())
		inner := s.Spawn("inner", func(q *Proc) {
			q.Sleep(Microsecond)
			log = append(log, "inner@"+q.Now().String())
		})
		p.Join(inner)
		log = append(log, "host-child joined@"+p.Now().String())
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// A host Spawn after Run returned starts a new run at the same clock.
	s.Spawn("late", func(p *Proc) {
		p.Sleep(Microsecond)
		log = append(log, "late@"+p.Now().String())
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := "host-child@0ns inner@1µs host-child joined@1µs late@2µs"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("log = %q, want %q", got, want)
	}
}

func TestJoinersWakeInFIFOOrder(t *testing.T) {
	s := New()
	target := s.Spawn("target", func(p *Proc) { p.Sleep(Microsecond) })
	var order []string
	// Joiners join in the reverse of their spawn order; they must wake in
	// the order they joined.
	for i := 1; i <= 4; i++ {
		name := fmt.Sprintf("j%d", i)
		delay := Duration(5 - i)
		s.Spawn(name, func(p *Proc) {
			p.Sleep(delay)
			p.Join(target)
			order = append(order, name)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "j4,j3,j2,j1" {
		t.Fatalf("joiners woke as %s, want j4,j3,j2,j1", got)
	}
}

// TestGoexitInProcessEndsRun checks that runtime.Goexit in a process body —
// what t.Fatal calls — ends the goroutine that called Run instead of
// leaving the scheduler waiting for a process that will never yield.
func TestGoexitInProcessEndsRun(t *testing.T) {
	s := New()
	s.Spawn("quitter", func(p *Proc) {
		p.Sleep(Microsecond)
		runtime.Goexit()
	})
	outcome := make(chan string, 1)
	go func() {
		how := "Goexit"
		defer func() { outcome <- how }()
		defer func() {
			if r := recover(); r != nil {
				how = fmt.Sprint("panic: ", r)
			}
		}()
		err := s.Run()
		how = fmt.Sprintf("returned %v", err)
	}()
	select {
	case how := <-outcome:
		if how != "Goexit" {
			t.Fatalf("Run's goroutine ended by %s, want Goexit", how)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run still blocked 10s after a process called runtime.Goexit")
	}
}

func TestSpawnAllocs(t *testing.T) {
	s := New()
	// A far-off event keeps the queue from draining, so finished coroutines
	// stay on the free list between steps as they do inside a long run.
	s.At(Time(Second), func() {})
	ran := 0
	body := func(*Proc) { ran++ }
	step := func() {
		s.Spawn("child", body)
		if err := s.RunUntil(s.Now()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(1000, step)
	if allocs > 2 {
		t.Fatalf("Spawn and run to completion allocates %.1f times, want <= 2 (the proc and its Proc)", allocs)
	}
	if ran != 8+1001 {
		t.Fatalf("%d bodies ran, want %d", ran, 8+1001)
	}
}

// BenchmarkProcSwitch measures one round of two processes alternating
// Sleep: two resumes and two parks.
func BenchmarkProcSwitch(b *testing.B) {
	s := New()
	for _, name := range []string{"ping", "pong"} {
		s.Spawn(name, func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Sleep(Microsecond)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawn measures spawning a process from inside a running one and
// running it to completion: the child is queued ahead of the driver's
// Yield, so it has finished by the time the driver continues.
func BenchmarkSpawn(b *testing.B) {
	s := New()
	body := func(*Proc) {}
	s.Spawn("driver", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			s.Spawn("child", body)
			p.Yield()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}
