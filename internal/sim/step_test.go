package sim

import (
	"fmt"
	"strings"
	"testing"
)

// schedOp is one operation of a randomized process script.
type schedOp struct {
	kind int
	d    Time  // sleep or hold time
	c    int   // channel index
	n    int64 // resource units or link bytes
}

const (
	opSleep = iota
	opPark
	opGet
	opPut
	opTryPut
	opHold // acquire n units, sleep d, release
	opTransfer
	numSchedOps
)

// schedRig is one run of a randomized schedule: actors work through their
// scripts over shared channels (capacities 0, 1 and 8), a resource and a
// link, among coroutine sources, sinks and a waker that keep every channel
// and parked actor moving. record logs every completed operation.
type schedRig struct {
	k      *Kernel
	chans  []*Chan[int]
	res    *Resource
	link   *Pipe
	rnd    *Rand
	actors []*Proc
	napped []bool // actor parked in opPark, for the waker
	log    []string
}

func (rg *schedRig) record(who string, i int, v any) {
	rg.log = append(rg.log, fmt.Sprintf("%s#%d=%v@%d", who, i, v, rg.k.Now()))
}

// randomScripts draws n actor scripts of length ops.
func randomScripts(seed uint64, n, ops int) [][]schedOp {
	r := NewRand(seed)
	scripts := make([][]schedOp, n)
	for a := range scripts {
		for i := 0; i < ops; i++ {
			scripts[a] = append(scripts[a], schedOp{
				kind: r.Intn(numSchedOps),
				d:    Time(r.Intn(4)),
				c:    r.Intn(3),
				n:    1 + r.Int63n(4),
			})
		}
	}
	return scripts
}

// runSchedule runs scripts as step processes (step true) or as coroutine
// twins, and returns the rig once the horizon is reached.
func runSchedule(seed uint64, scripts [][]schedOp, step bool) *schedRig {
	k := NewKernel()
	rg := &schedRig{k: k, res: NewResource(k, 4), link: NewPipe(k, 1e9, 3), rnd: NewRand(seed)}
	for _, c := range []int{0, 1, 8} {
		rg.chans = append(rg.chans, NewChan[int](k, c))
	}
	for ci, ch := range rg.chans {
		ci, ch := ci, ch
		k.Spawn(fmt.Sprintf("source%d", ci), func(p *Proc) {
			p.SetDaemon(true)
			for v := 1_000_000 * (ci + 1); ; v++ {
				p.Sleep(Time(rg.rnd.Intn(6)))
				ch.Put(p, v)
			}
		})
		k.Spawn(fmt.Sprintf("sink%d", ci), func(p *Proc) {
			p.SetDaemon(true)
			for i := 0; ; i++ {
				rg.record(fmt.Sprintf("sink%d", ci), i, ch.Get(p))
				p.Sleep(Time(rg.rnd.Intn(6)))
			}
		})
	}
	for a, script := range scripts {
		name := fmt.Sprintf("actor%d", a)
		var p *Proc
		if step {
			sa := &stepActor{rg: rg, a: a, name: name, base: 1000 * a, script: script}
			p = k.SpawnStep(name, sa.step)
		} else {
			p = k.Spawn(name, func(p *Proc) { rg.runActor(p, a, script) })
		}
		rg.actors = append(rg.actors, p)
		rg.napped = append(rg.napped, false)
	}
	k.Spawn("waker", func(p *Proc) {
		p.SetDaemon(true)
		for {
			p.Sleep(Time(1 + rg.rnd.Intn(4)))
			if a := rg.rnd.Intn(len(rg.actors)); rg.napped[a] {
				rg.napped[a] = false
				rg.actors[a].Wake()
			}
		}
	})
	k.Run(3000)
	return rg
}

// runActor is the coroutine twin: the script with the blocking calls.
func (rg *schedRig) runActor(p *Proc, a int, script []schedOp) {
	name, base := fmt.Sprintf("actor%d", a), 1000*a
	for i, op := range script {
		var v any
		switch op.kind {
		case opSleep:
			p.Sleep(op.d)
		case opPark:
			rg.napped[a] = true
			p.Park()
		case opGet:
			v = rg.chans[op.c].Get(p)
		case opPut:
			rg.chans[op.c].Put(p, base+i)
		case opTryPut:
			v = rg.chans[op.c].TryPut(base + i)
		case opHold:
			rg.res.Acquire(p, op.n)
			p.Sleep(op.d)
			rg.res.Release(op.n)
		case opTransfer:
			rg.link.Transfer(p, op.n)
		}
		rg.record(name, i, v)
	}
}

// stepActor is the step-process form of runActor: i is the current op and
// phase how far it got before the process blocked.
type stepActor struct {
	rg     *schedRig
	a      int
	name   string
	base   int
	script []schedOp
	i      int
	phase  int
}

func (a *stepActor) step(p *Proc) {
	rg := a.rg
	for ; a.i < len(a.script); a.i, a.phase = a.i+1, 0 {
		op := a.script[a.i]
		var v any
		switch op.kind {
		case opSleep:
			if a.phase == 0 {
				a.phase = 1
				p.SleepStep(op.d)
				return
			}
		case opPark:
			if a.phase == 0 {
				a.phase = 1
				rg.napped[a.a] = true
				p.ParkStep()
				return
			}
		case opGet:
			got, ok := rg.chans[op.c].GetStep(p)
			if !ok {
				return
			}
			v = got
		case opPut:
			if a.phase == 0 {
				a.phase = 1
				if !rg.chans[op.c].PutStep(p, a.base+a.i) {
					return
				}
			}
		case opTryPut:
			v = rg.chans[op.c].TryPut(a.base + a.i)
		case opHold:
			switch a.phase {
			case 0:
				a.phase = 1
				if !rg.res.AcquireStep(p, op.n) {
					return
				}
				fallthrough
			case 1:
				a.phase = 2
				p.SleepStep(op.d)
				return
			}
			rg.res.Release(op.n)
		case opTransfer:
			if a.phase == 0 {
				a.phase = 1
				rg.link.TransferStep(p, op.n)
				return
			}
		}
		rg.record(a.name, a.i, v)
	}
}

// TestStepProcMatchesCoroutine pins the step-process ordering contract:
// every block of a step process schedules the same event, at the same time
// and with the same sequence number, as the coroutine block it replaces.
// Randomized scripts over Sleep, Park/Wake, Chan (capacity 0, 1 and 8;
// Get, Put and TryPut), Resource acquire/release and Pipe transfers run
// once as step processes and once as coroutine twins, among the same
// coroutine processes; both runs must log the same operations at the same
// times and execute the same number of events.
func TestStepProcMatchesCoroutine(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		scripts := randomScripts(seed, 6, 60)
		steps := runSchedule(seed, scripts, true)
		coros := runSchedule(seed, scripts, false)
		if len(steps.log) < 100 {
			t.Fatalf("seed %d: only %d operations logged", seed, len(steps.log))
		}
		for i := range steps.log {
			if i >= len(coros.log) || steps.log[i] != coros.log[i] {
				c := "<end>"
				if i < len(coros.log) {
					c = coros.log[i]
				}
				t.Fatalf("seed %d: entry %d is %s as step processes, %s as coroutines", seed, i, steps.log[i], c)
			}
		}
		if len(steps.log) != len(coros.log) {
			t.Fatalf("seed %d: %d entries as step processes, %d as coroutines", seed, len(steps.log), len(coros.log))
		}
		if se, ce := steps.k.EventsExecuted(), coros.k.EventsExecuted(); se != ce {
			t.Fatalf("seed %d: %d events as step processes, %d as coroutines", seed, se, ce)
		}
		steps.k.Close()
		coros.k.Close()
	}
}

// TestStepProcPanicAttribution pins that a panic in a step reaches the
// caller of Run as the step process's, with its name, the simulated time,
// the original value and the panicking frame, whether the kernel runs the
// step itself or on a blocking coroutine's stack; and that a blocking call
// on a step process panics.
func TestStepProcPanicAttribution(t *testing.T) {
	runPanic := func(k *Kernel) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		k.Run(0)
		return ""
	}
	k := NewKernel()
	slept := false
	k.SpawnStep("exploder", func(p *Proc) {
		if !slept {
			slept = true
			p.SleepStep(5)
			return
		}
		panic("boom")
	})
	msg := runPanic(k)
	for _, want := range []string{`process "exploder" panicked at 5ns`, "boom", "step_test.go"} {
		if !strings.Contains(msg, want) {
			t.Errorf("panic message lacks %q:\n%s", want, msg)
		}
	}

	// The coroutine blocks with the step's resume next: the kernel runs the
	// step inline, on the coroutine's stack.
	k = NewKernel()
	inline := false
	stepper := k.SpawnStep("stepper", func(p *Proc) {
		if p.Now() == 0 {
			p.ParkStep()
			return
		}
		inline = k.inline
		panic("boom")
	})
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(3)
		stepper.Wake()
		p.Sleep(10)
	})
	msg = runPanic(k)
	if !inline {
		t.Fatal("the step did not run on the sleeper's stack")
	}
	if !strings.Contains(msg, `process "stepper" panicked at 3ns: boom`) || strings.Contains(msg, `"sleeper"`) {
		t.Errorf("inline step panic attributed wrongly:\n%s", msg)
	}

	k = NewKernel()
	k.SpawnStep("blocker", func(p *Proc) { p.Sleep(1) })
	msg = runPanic(k)
	if !strings.Contains(msg, `step process "blocker" called a blocking operation`) {
		t.Errorf("blocking call on a step process: %s", msg)
	}
}

// TestStepProcLifecycle pins how step processes end and are accounted: a
// step that returns without blocking ends its process; a parked non-daemon
// step process with nothing pending is a deadlock, a parked daemon is not;
// and Close drops a parked step process.
func TestStepProcLifecycle(t *testing.T) {
	k := NewKernel()
	steps := 0
	k.SpawnStep("once", func(p *Proc) {
		steps++
		if steps < 3 {
			p.SleepStep(1)
		}
	})
	k.Run(0)
	if steps != 3 || k.nprocs != 0 || k.live != nil || k.Now() != 2 {
		t.Fatalf("steps=%d nprocs=%d now=%v, want 3 steps and the process ended at 2ns", steps, k.nprocs, k.Now())
	}

	k = NewKernel()
	k.SpawnStep("stuck", func(p *Proc) { p.ParkStep() })
	d := k.SpawnStep("idle", func(p *Proc) { p.ParkStep() })
	d.SetDaemon(true)
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		k.Run(0)
	}()
	if !strings.Contains(msg, "deadlock") || !strings.Contains(msg, "1 non-daemon processes parked") {
		t.Fatalf("parked step process: Run panicked with %q, want a deadlock of 1 non-daemon process", msg)
	}

	k = NewKernel()
	resumed := 0
	parked := k.SpawnStep("parked", func(p *Proc) {
		resumed++
		p.ParkStep()
	})
	parked.SetDaemon(true)
	k.Run(0)
	k.Close()
	if resumed != 1 || k.nprocs != 0 || k.live != nil || k.parked != 0 {
		t.Fatalf("after Close: resumed=%d nprocs=%d parked=%d, want 1/0/0", resumed, k.nprocs, k.parked)
	}
}

// TestStepHandoffAllocs pins that step-process hand-offs allocate nothing:
// two step sleepers whose wakes alternate, and a step parker woken from
// outside.
func TestStepHandoffAllocs(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	sleeps := 0
	for i := 0; i < 2; i++ {
		started := false
		k.SpawnStep("pair", func(p *Proc) {
			if !started {
				started = true
				p.SleepStep(Time(i))
				return
			}
			sleeps++
			p.SleepStep(2)
		})
	}
	k.Run(2)
	if a := testing.AllocsPerRun(100, func() { k.Run(k.Now() + 1) }); a != 0 {
		t.Errorf("step Sleep hand-off allocates %.1f times, want 0", a)
	}
	if sleeps < 100 {
		t.Fatalf("step pair resumed %d times, want >= 100", sleeps)
	}

	k2 := NewKernel()
	defer k2.Close()
	wakes := 0
	parker := k2.SpawnStep("parker", func(p *Proc) {
		wakes++
		p.ParkStep()
	})
	parker.SetDaemon(true)
	k2.Run(0)
	if a := testing.AllocsPerRun(100, func() {
		parker.Wake()
		k2.Run(0)
	}); a != 0 {
		t.Errorf("step Park/Wake hand-off allocates %.1f times, want 0", a)
	}
	if wakes < 100 {
		t.Fatalf("step parker resumed %d times, want >= 100", wakes)
	}
}
