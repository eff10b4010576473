package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestProcPanicAttribution pins that a panic inside a process reaches the
// caller of Run carrying the process name, the simulated time and the
// original value.
func TestProcPanicAttribution(t *testing.T) {
	k := NewKernel()
	k.Spawn("exploder", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		k.Run(0)
	}()
	for _, want := range []string{`"exploder"`, "5ns", "boom", "process_test.go"} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic message lacks %q:\n%s", want, msg)
		}
	}
}

// TestProcHandoffAllocs pins the allocation-free hand-off: a Sleep and a
// Park/Wake round trip each schedule the process's prebuilt resume closure
// and switch coroutines without allocating.
func TestProcHandoffAllocs(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	sleeps := 0
	k.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(1)
			sleeps++
		}
	})
	k.Run(1)
	if a := testing.AllocsPerRun(100, func() { k.Run(k.Now() + 1) }); a != 0 {
		t.Errorf("Sleep hand-off allocates %.1f times, want 0", a)
	}
	if sleeps < 100 {
		t.Fatalf("sleeper resumed %d times, want >= 100", sleeps)
	}

	k2 := NewKernel()
	defer k2.Close()
	wakes := 0
	parker := k2.Spawn("parker", func(p *Proc) {
		p.SetDaemon(true)
		for {
			p.Park()
			wakes++
		}
	})
	k2.Run(0)
	if a := testing.AllocsPerRun(100, func() {
		parker.Wake()
		k2.Run(0)
	}); a != 0 {
		t.Errorf("Park/Wake hand-off allocates %.1f times, want 0", a)
	}
	if wakes < 100 {
		t.Fatalf("parker resumed %d times, want >= 100", wakes)
	}
}

// settledGoroutines waits briefly for exiting goroutines to disappear and
// returns the goroutine count once it stops above want.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestKernelCloseReleasesProcesses pins that Close stops every kind of live
// process — parked on a Chan, sleeping, never started — so repeated
// build/run/close cycles leave no goroutine behind, and that a stopped
// process unwinds through its deferred calls without running further model
// code.
func TestKernelCloseReleasesProcesses(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		k := NewKernel()
		ch := NewChan[int](k, 0)
		unwound, resumed := 0, 0
		k.Spawn("blocked", func(p *Proc) {
			defer func() { unwound++ }()
			ch.Get(p)
			resumed++
		})
		k.Spawn("sleeper", func(p *Proc) {
			defer func() { unwound++ }()
			p.Sleep(Second)
			resumed++
		})
		k.Run(Millisecond)
		started := false
		k.Spawn("never", func(p *Proc) { started = true })
		k.Close()
		k.Close() // idempotent
		if unwound != 2 || resumed != 0 || started {
			t.Fatalf("cycle %d: unwound=%d resumed=%d started=%v, want 2/0/false", i, unwound, resumed, started)
		}
		if k.nprocs != 0 || k.live != nil || k.queue.len() != 0 {
			t.Fatalf("cycle %d: %d procs live, %d events pending after Close", i, k.nprocs, k.queue.len())
		}
		if k.Run(0) != Millisecond {
			t.Fatalf("cycle %d: a closed kernel advanced", i)
		}
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after 50 closed kernels, baseline %d", n, base)
	}
}

// TestShardClose pins Shard.Close: processes on every domain stop.
func TestShardClose(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		s := NewShard(2)
		a, b := s.AddDomain("a"), s.AddDomain("b")
		e := s.MustConnect(a, b, 10)
		ch := NewChan[int](b.Kernel(), 0)
		b.Kernel().Spawn("consumer", func(p *Proc) {
			p.SetDaemon(true)
			for {
				ch.Get(p)
			}
		})
		a.Kernel().Spawn("producer", func(p *Proc) {
			for j := 0; j < 3; j++ {
				p.Sleep(5)
				e.After(10, func() { ch.TryPut(j) })
			}
		})
		s.Run(0)
		s.Close()
		for _, d := range s.Domains() {
			if d.Kernel().nprocs != 0 {
				t.Fatalf("domain %s: %d processes live after Close", d.Name(), d.Kernel().nprocs)
			}
		}
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines after 10 closed shards, baseline %d", n, base)
	}
}

// TestProcGoexitUnwindsRun pins that runtime.Goexit inside a process — what
// t.Fatal does — ends the goroutine that called Run instead of leaving it
// blocked on a process that will never hand control back.
func TestProcGoexitUnwindsRun(t *testing.T) {
	k := NewKernel()
	returned := make(chan bool)
	go func() {
		ok := false
		defer func() { returned <- ok }()
		k.Spawn("quitter", func(p *Proc) {
			p.Sleep(1)
			runtime.Goexit()
		})
		k.Run(0)
		ok = true
	}()
	if <-returned {
		t.Fatal("Run returned normally after its process called runtime.Goexit")
	}
	if k.nprocs != 0 || k.live != nil {
		t.Fatalf("%d processes still live after Goexit", k.nprocs)
	}
}
