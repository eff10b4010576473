package sim

import (
	"fmt"
	"testing"
)

// BenchmarkKernelSchedule measures the push/pop hot path: schedule a batch
// of events at staggered timestamps and drain them. The inlined 4-ary heap
// must run at 0 allocs/op in steady state (container/heap boxed every event
// through interface{}, costing one allocation per Push).
func BenchmarkKernelSchedule(b *testing.B) {
	k := NewKernel()
	nop := func() {}
	const batch = 256
	// Warm the queue's backing array to its high-water mark so growth
	// allocations do not pollute the steady-state measurement.
	for j := 0; j < batch; j++ {
		k.At(k.Now()+Time(j%17), nop)
	}
	k.Run(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := k.Now()
		for j := 0; j < batch; j++ {
			k.At(base+Time(j%17), nop)
		}
		k.Run(0)
	}
	b.StopTimer()
	if k.EventsExecuted() == 0 {
		b.Fatal("no events executed")
	}
}

// BenchmarkKernelScheduleDeep exercises the heap at a sustained depth of
// 4096 pending events, the regime of a busy multi-rig simulation.
func BenchmarkKernelScheduleDeep(b *testing.B) {
	k := NewKernel()
	nop := func() {}
	const depth = 4096
	for j := 0; j < depth; j++ {
		k.At(k.Now()+Time(j%61)+1, nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Pop one event, push a replacement: constant-depth churn.
		e := k.queue.pop()
		k.finishPop(&e)
		k.now = e.at
		k.executed++
		k.At(k.now+Time(i%61)+1, nop)
	}
	b.StopTimer()
	k.queue.ev = nil // drop pending events; this kernel is not reused
}

// BenchmarkKernelHorizon measures repeated Run calls that hit the horizon:
// the peek-before-pop path must not re-heapify the over-horizon event.
func BenchmarkKernelHorizon(b *testing.B) {
	k := NewKernel()
	nop := func() {}
	k.At(1<<50, nop) // far-future event keeps the queue non-empty
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Run(k.Now() + 10)
	}
}

// BenchmarkKernelCrossDomain measures the inter-domain handoff: one event
// sent over an edge, merged at the barrier, and executed in the destination
// kernel. The reported allocs/op are the cross-domain send cost (the
// closure plus outbox bookkeeping); the intra-domain path stays at 0 (see
// BenchmarkKernelSchedule and BenchmarkShardedIntraDomain).
func BenchmarkKernelCrossDomain(b *testing.B) {
	s := NewShard(1)
	a := s.AddDomain("a")
	c := s.AddDomain("b")
	ab := s.MustConnect(a, c, 10)
	ba := s.MustConnect(c, a, 10)
	const (
		batch = 256
		hops  = 4
	)
	n := 0
	left := 0
	var ping, pong func()
	start := func() { left = hops; ping() }
	ping = func() {
		n++
		if left--; left > 0 {
			ab.After(10, pong)
		}
	}
	pong = func() { n++; ba.After(10, ping) }
	// Warm the outboxes, inbox and queues to their high-water marks.
	for j := 0; j < batch; j++ {
		a.Kernel().At(Time(j), start)
	}
	s.Run(0)
	warmCross := s.CrossEvents()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := a.Kernel().Now()
		for j := 0; j < batch; j++ {
			a.Kernel().At(base+Time(j), start)
		}
		s.Run(0)
	}
	b.StopTimer()
	if n == 0 {
		b.Fatal("no cross-domain events executed")
	}
	crossed := s.CrossEvents() - warmCross
	if crossed == 0 {
		b.Fatal("no cross-domain handoffs during timed region")
	}
	b.ReportMetric(float64(crossed)/b.Elapsed().Seconds(), "crossevents/s")
}

// BenchmarkShardedIntraDomain extends the 0 allocs/op guarantee to the
// sharded scheduler: steady-state local scheduling inside a domain, with
// edges declared and the conservative window loop active.
func BenchmarkShardedIntraDomain(b *testing.B) {
	s := NewShard(1)
	a := s.AddDomain("a")
	c := s.AddDomain("b")
	s.MustConnect(a, c, 1000)
	k := a.Kernel()
	nop := func() {}
	const batch = 256
	for j := 0; j < batch; j++ {
		k.At(k.Now()+Time(j%17), nop)
	}
	s.Run(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := k.Now()
		for j := 0; j < batch; j++ {
			k.At(base+Time(j%17), nop)
		}
		s.Run(0)
	}
}

// BenchmarkShardedRing drives the 4-domain determinism rig shape at each
// worker count so `go test -bench ShardedRing` shows the raw conservative-
// sync scaling on the host (see bench.KernelSweep for the calibrated chain).
// Every iteration's per-domain digests are cross-checked against a serial
// reference run, so the race-detector smoke pass (`make bench-smoke`) doubles
// as a determinism check on the concurrent round loop.
func BenchmarkShardedRing(b *testing.B) {
	want, _, _ := ringRig(1)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				digests, n, _ := ringRig(w)
				events += n
				for d, got := range digests {
					if got != want[d] {
						b.Fatalf("workers=%d domain %d digest %016x != serial %016x (determinism violation)",
							w, d, got, want[d])
					}
				}
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkProcSleep measures one process hand-off: a Sleep schedules the
// process's resume closure, switches to the kernel, and the kernel switches
// back. It must run at 0 allocs/op.
func BenchmarkProcSleep(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	k.Run(1) // start the coroutine outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(k.Now() + Time(b.N))
}

// BenchmarkProcChanPingPong measures a round trip between two processes
// over zero-capacity Chans: four Park/Wake hand-offs per op.
func BenchmarkProcChanPingPong(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	ping, pong := NewChan[int](k, 0), NewChan[int](k, 0)
	k.Spawn("echo", func(p *Proc) {
		p.SetDaemon(true)
		for {
			pong.Put(p, ping.Get(p))
		}
	})
	n := b.N
	k.Spawn("driver", func(p *Proc) {
		for i := 0; i < n; i++ {
			ping.Put(p, i)
			if pong.Get(p) != i {
				panic("ping-pong out of order")
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(0)
}
