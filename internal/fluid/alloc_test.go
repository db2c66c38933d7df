package fluid

import (
	"fmt"
	"testing"

	"madgo/internal/vtime"
)

// The allocator runs twice per transfer (start and completion) over every
// active flow, so its steady state must not allocate, and a transfer must
// cost no more than the Flow record and the Waker its process blocks on.

// transferAllocs is the allocation count of one steady-state Transfer: the
// Flow and its Waker.
const transferAllocs = 2

// gatewayRig builds n transfer specs shaped like the paper's gateway
// traffic: every flow crosses a sending PCI bus, one of n/4 wires and a
// receiving PCI bus, both buses arbitrating PIO under DMA, with sizes
// spread so completions interleave.
func gatewayRig(n int) (*vtime.Sim, *Engine, []Spec) {
	s := vtime.New()
	e := NewEngine(s)
	busA := e.NewResource("pci:a", 90*MB, pciArbitration(0.5))
	busB := e.NewResource("pci:b", 90*MB, pciArbitration(0.5))
	wires := make([]*Resource, (n+3)/4)
	for i := range wires {
		wires[i] = e.NewResource(fmt.Sprintf("wire:%d", i), 80*MB, nil)
	}
	specs := make([]Spec, n)
	for i := range specs {
		send := ClassDMA
		if i%2 == 1 {
			send = ClassPIO
		}
		name := fmt.Sprintf("flow:%d", i)
		specs[i] = Spec{
			Name:   name,
			Class:  send,
			Demand: 44 * MB,
			Bytes:  int64(4096 + 512*(i%7)),
			Route:  []Hop{{R: busA, Class: send}, {R: wires[i/4], Class: ClassWire}, {R: busB, Class: ClassDMA}},
			Wait:   "flow " + name,
		}
	}
	return s, e, specs
}

func TestComputeRatesZeroAllocs(t *testing.T) {
	for _, n := range []int{8, 64} {
		_, e, specs := gatewayRig(n)
		for _, spec := range specs {
			e.Start(spec, nil)
		}
		allocs := testing.AllocsPerRun(100, e.computeRates)
		if allocs != 0 {
			t.Errorf("computeRates over %d flows allocates %.1f times, want 0", n, allocs)
		}
	}
}

func TestTransferAllocs(t *testing.T) {
	s, e, specs := gatewayRig(1)
	done, stop := 0, false
	s.Spawn("xfer", func(p *vtime.Proc) {
		for !stop {
			e.Transfer(p, specs[0])
			done++
		}
	})
	deadline := vtime.Time(0)
	one := func() {
		for want := done + 1; done < want; {
			deadline = deadline.Add(vtime.Microsecond)
			if err := s.RunUntil(deadline); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 8; i++ {
		one()
	}
	allocs := testing.AllocsPerRun(100, one)
	stop = true
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs > transferAllocs {
		t.Fatalf("one Transfer allocates %.1f times, want at most %d (the Flow and its Waker)", allocs, transferAllocs)
	}
}

// BenchmarkFluidTransfer measures the host cost of one transfer while n
// flows share the gateway's buses: each op is a flow start and completion,
// two reallocations over all n flows.
func BenchmarkFluidTransfer(b *testing.B) {
	for _, n := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) {
			s, e, specs := gatewayRig(n)
			left := b.N
			for i := range specs {
				spec := specs[i]
				s.Spawn(spec.Name, func(p *vtime.Proc) {
					for left > 0 {
						left--
						e.Transfer(p, spec)
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
