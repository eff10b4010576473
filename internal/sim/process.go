package sim

import (
	"fmt"
	"runtime/debug"
)

// Proc is a cooperative simulation process: a coroutine that runs only while
// the kernel has handed it control, and hands control back whenever it
// blocks on simulated time (Sleep) or on a synchronization object (Chan,
// Resource, Pipe). At most one Proc executes at any real instant, so models
// need no locking and the simulation is deterministic.
//
// A hand-off is one direct coroutine switch (see coro.go): the kernel
// resumes a process by running its resume closure, built once at Spawn, so
// Sleep, Park and Wake schedule nothing that allocates. A process whose own
// resume is the next thing to run after it blocks needs no switch at all:
// it steps the kernel on its own stack until then (yield).
//
// A step process (SpawnStep) has no coroutine: each resume calls its step
// function on the kernel's stack, and the function returns whenever the
// process blocks.
type Proc struct {
	k    *Kernel
	name string

	// fn is the process body until its first dispatch creates the
	// coroutine; next resumes the coroutine, suspend hands control back
	// (false once the kernel is closing), and stop ends a suspended one.
	fn      func(p *Proc)
	next    func() (struct{}, bool)
	suspend func(struct{}) bool
	stop    func()
	// run is the event callback that resumes the process, and resumeSeq
	// the sequence number of its latest resume through the event heap.
	run       func()
	resumeSeq uint64
	done      bool

	// step is a step process's step function (nil for a coroutine). blocked
	// is set when the process blocks (a resume is scheduled or it parks)
	// and cleared when it resumes; a step that returns with it clear has
	// ended the process. wait is the Chan getter node a blocked GetStep
	// left, which the next GetStep collects.
	step    func(p *Proc)
	blocked bool
	wait    any

	// prevLive and nextLive link the kernel's live processes, so Close can
	// stop them without an allocation per Spawn.
	prevLive, nextLive *Proc

	// parked is true while the process waits for an explicit wake rather
	// than a timer.
	parked bool
	// daemon marks a service loop that legitimately idles forever; parked
	// daemons do not count toward deadlock detection.
	daemon bool
}

// procStopped is the panic value that unwinds a process whose kernel is
// closing; the process body recovers exactly this value.
type procStopped struct{}

// SetDaemon marks the process as a daemon service loop. Call it before the
// process first parks: from inside it, or right after spawning it.
func (p *Proc) SetDaemon(on bool) {
	if p.daemon == on {
		return
	}
	p.daemon = on
	if on {
		p.k.daemons++
	} else {
		p.k.daemons--
	}
}

// Spawn starts fn as a new process. fn begins executing at the current
// simulated time, after the caller yields back to the kernel.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.spawn(&Proc{k: k, name: name, fn: fn})
}

// SpawnStep starts a step process: an explicit state machine whose every
// resume calls step on the kernel's stack, with no coroutine switch. step
// runs until the process blocks, which it does only through the step forms
// of the blocking calls (SleepStep, ParkStep, Chan.GetStep and PutStep,
// Resource.AcquireStep, Pipe.TransferStep), and then returns; the process
// keeps its own record of where to continue. A step that returns without
// blocking ends the process. The blocking forms panic on a step process.
//
// Every block schedules exactly the event its blocking form would, so a
// step process and a coroutine running the same code see the same
// schedule. step first runs at the current simulated time, after the
// caller yields back to the kernel.
func (k *Kernel) SpawnStep(name string, step func(p *Proc)) *Proc {
	return k.spawn(&Proc{k: k, name: name, step: step})
}

func (k *Kernel) spawn(p *Proc) *Proc {
	p.run = p.dispatch
	k.nprocs++
	p.nextLive = k.live
	if k.live != nil {
		k.live.prevLive = p
	}
	k.live = p
	k.resumeAt(k.now, p)
	return p
}

// dispatch resumes p: it runs a step process's step, or transfers control
// to a coroutine and returns once it yields or finishes. Must only be
// called from kernel context.
func (p *Proc) dispatch() {
	p.blocked = false
	switch {
	case p.done:
	case p.step != nil:
		p.runStep()
	default:
		if p.next == nil {
			p.start()
		}
		p.next()
	}
}

// runStep runs one step of a step process and ends the process if the step
// returned without blocking. A model panic in the step is re-panicked with
// the process's name and simulated time attached, as body does.
func (p *Proc) runStep() {
	defer func() {
		if r := recover(); r != nil {
			panic(p.panicMessage(r))
		}
	}()
	p.step(p)
	if !p.blocked {
		p.finish()
	}
}

// panicMessage attributes the model panic r to p.
func (p *Proc) panicMessage(r any) string {
	return fmt.Sprintf("sim: process %q panicked at %v: %v\n\n%s", p.name, p.k.now, r, debug.Stack())
}

// body is the coroutine's body: it runs the process function, retires the
// process however it ends, and re-panics a model panic with the process's
// name and simulated time attached.
func (p *Proc) body(suspend func(struct{}) bool) {
	p.suspend = suspend
	defer func() {
		r := recover()
		p.finish()
		if _, ok := r.(procStopped); r == nil || ok {
			return
		}
		if p.k.inline {
			// A callback or timer the kernel ran on this stack while the
			// process blocked (yield) panicked: the panic is its own.
			p.k.inline = false
			panic(r)
		}
		panic(p.panicMessage(r))
	}()
	fn := p.fn
	p.fn = nil
	fn(p)
}

// finish retires p: it no longer counts as live and is never resumed.
func (p *Proc) finish() {
	p.done = true
	k := p.k
	k.nprocs--
	if p.prevLive != nil {
		p.prevLive.nextLive = p.nextLive
	} else {
		k.live = p.nextLive
	}
	if p.nextLive != nil {
		p.nextLive.prevLive = p.prevLive
	}
	p.prevLive, p.nextLive = nil, nil
}

// yield blocks p until its resume runs. Inside Run it first steps the
// kernel on p's own stack (Kernel.resumeInline), running due callbacks and
// timers in Run's order; when p's own resume comes next it returns without
// a coroutine switch. It hands control back to the kernel only when another
// process's resume, the horizon or an empty queue comes next, all of which
// Run handles. When the kernel closes instead, it unwinds the process.
//
// A step process never yields: it panics instead.
func (p *Proc) yield() {
	if p.step != nil {
		panic(fmt.Sprintf("sim: step process %q called a blocking operation", p.name))
	}
	if k := p.k; k.running && k.resumeInline(p) {
		return
	}
	if !p.suspend(struct{}{}) {
		panic(procStopped{})
	}
}

// Close stops every live process and drops every pending event and timer,
// releasing the coroutines a finished simulation would otherwise keep
// suspended forever (daemon service loops, processes parked on an idle
// Chan). A suspended process unwinds from the call that blocked it,
// running only its deferred calls; one that never ran is dropped. Call
// Close after Run has returned, never from inside a process; the kernel
// must not be run again afterwards. Close is idempotent.
func (k *Kernel) Close() {
	for k.live != nil {
		p := k.live
		if p.stop == nil {
			p.finish()
			continue
		}
		p.stop()
	}
	k.queue.ev = nil
	k.ready = FIFO[readyEvent]{}
	for _, tq := range k.timers {
		tq.clear()
	}
	k.tq = nil
	k.parked, k.parkedDaemons = 0, 0
}

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Sleep suspends the process for d. A non-positive d still yields, letting
// already-scheduled same-time events run first.
func (p *Proc) Sleep(d Time) {
	p.SleepStep(d)
	p.yield()
}

// SleepStep is Sleep for a step process: it schedules the process's next
// step d from now, as the same event Sleep schedules, and returns. The
// step must return next.
func (p *Proc) SleepStep(d Time) {
	if d < 0 {
		d = 0
	}
	k := p.k
	k.resumeAt(k.now+d, p)
}

// Park suspends the process until another component calls Wake. Every Park
// must be paired with exactly one Wake; the synchronization objects in this
// package maintain that pairing.
func (p *Proc) Park() {
	p.ParkStep()
	p.yield()
}

// ParkStep is Park for a step process: it marks the process parked, so its
// next step runs when Wake is called, and returns. The step must return
// next.
func (p *Proc) ParkStep() {
	p.parked = true
	p.blocked = true
	p.k.parked++
	if p.daemon {
		p.k.parkedDaemons++
	}
}

// Wake schedules a parked process to resume at the current simulated time.
// It is a no-op if the process is not parked, so wakers may race benignly.
func (p *Proc) Wake() {
	if !p.parked {
		return
	}
	p.parked = false
	p.k.parked--
	if p.daemon {
		p.k.parkedDaemons--
	}
	k := p.k
	k.resumeAt(k.now, p)
}
