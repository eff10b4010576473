package sim

import "testing"

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
		k.now = e.at
		k.executed++
		k.At(k.now+Time(i%61)+1, nop)
	}
	b.StopTimer()
	k.queue.ev = nil // drop pending events; this kernel is not reused
}

// BenchmarkKernelTimers measures a watchdog per unit of work: each of a
// batch of staggered events arms a timer, and three in four retire before
// they come due, as a completion watchdog's work usually does. Retired
// timers are dropped without an event; the steady state allocates nothing.
func BenchmarkKernelTimers(b *testing.B) {
	k := NewKernel()
	const batch = 256
	retired := make([]bool, batch)
	tm := NewTimers(k, 40, func(i int) bool { return !retired[i] }, func(int) {})
	arms := make([]func(), batch)
	for j := range arms {
		j := j
		arms[j] = func() {
			retired[j] = j%4 != 0
			tm.Arm(j)
		}
	}
	cycle := func() {
		base := k.Now()
		for j := range arms {
			retired[j] = false
			k.At(base+Time(j%17), arms[j])
		}
		k.Run(0)
	}
	cycle() // grow the queues to their high-water mark
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
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

// BenchmarkProcSleep measures one inline process hand-off: a lone sleeper's
// own resume is always the next event, so its Sleep schedules the resume
// and takes it back on its own stack, with no coroutine switch. It must run
// at 0 allocs/op.
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

// BenchmarkProcSleepPair measures one switching process hand-off: two
// sleepers whose wakes alternate, so every Sleep finds the other process's
// resume next and switches to the kernel, which switches to the other. It
// must run at 0 allocs/op.
func BenchmarkProcSleepPair(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	for i := 0; i < 2; i++ {
		k.Spawn("sleeper", func(p *Proc) {
			p.Sleep(Time(i))
			for {
				p.Sleep(2)
			}
		})
	}
	k.Run(2) // start both coroutines outside the timed region
	b.ReportAllocs()
	b.ResetTimer()
	k.Run(k.Now() + Time(b.N))
}

// BenchmarkProcStepSleepPair is BenchmarkProcSleepPair with step processes:
// every hand-off runs the other process's step on the kernel's stack, with
// no coroutine switch. It must run at 0 allocs/op.
func BenchmarkProcStepSleepPair(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	for i := 0; i < 2; i++ {
		started := false
		k.SpawnStep("sleeper", func(p *Proc) {
			if !started {
				started = true
				p.SleepStep(Time(i))
				return
			}
			p.SleepStep(2)
		})
	}
	k.Run(2)
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
