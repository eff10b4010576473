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
// Sleep, Park and Wake schedule nothing that allocates.
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
	// run is the event callback that resumes the process.
	run  func()
	done bool

	// prevLive and nextLive link the kernel's live processes, so Close can
	// stop them without an allocation per Spawn.
	prevLive, nextLive *Proc

	// parked is true while the process waits for an explicit wake rather
	// than a timer. parkSeq distinguishes successive parks so a stale
	// timeout cannot wake a later, unrelated park.
	parked  bool
	parkSeq uint64
	// daemon marks a service loop that legitimately idles forever; parked
	// daemons do not count toward deadlock detection.
	daemon bool
}

// procStopped is the panic value that unwinds a process whose kernel is
// closing; the process body recovers exactly this value.
type procStopped struct{}

// SetDaemon marks the process as a daemon service loop. Call it from inside
// the process before its first Park.
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
	p := &Proc{k: k, name: name, fn: fn}
	p.run = p.dispatch
	k.nprocs++
	p.nextLive = k.live
	if k.live != nil {
		k.live.prevLive = p
	}
	k.live = p
	k.At(k.now, p.run)
	return p
}

// dispatch transfers control to p and returns once p yields or finishes.
// Must only be called from kernel context.
func (p *Proc) dispatch() {
	if p.done {
		return
	}
	if p.next == nil {
		p.start()
	}
	p.next()
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
		panic(fmt.Sprintf("sim: process %q panicked at %v: %v\n\n%s", p.name, p.k.now, r, debug.Stack()))
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

// yield returns control to the kernel and blocks until redispatched. When
// the kernel closes instead, it unwinds the process.
func (p *Proc) yield() {
	if !p.suspend(struct{}{}) {
		panic(procStopped{})
	}
}

// Close stops every live process and drops every pending event, releasing
// the coroutines a finished simulation would otherwise keep suspended
// forever (daemon service loops, processes parked on an idle Chan). A
// suspended process unwinds from the call that blocked it, running only
// its deferred calls; one that never ran is dropped. Call Close after Run
// has returned, never from inside a process; the kernel must not be run
// again afterwards. Close is idempotent.
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
	k.localPending, k.minLocal = 0, maxTime
	k.parked, k.parkedDaemons = 0, 0
}

// Name returns the name given at Spawn, for traces and panics.
func (p *Proc) Name() string { return p.name }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Sleep suspends the process for d. A non-positive d still yields, letting
// already-scheduled same-time events run first.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	k := p.k
	k.At(k.now+d, p.run)
	p.yield()
}

// Park suspends the process until another component calls Wake. Every Park
// must be paired with exactly one Wake; the synchronization objects in this
// package maintain that pairing.
func (p *Proc) Park() {
	p.parkSeq++
	p.parked = true
	p.k.parked++
	if p.daemon {
		p.k.parkedDaemons++
	}
	p.yield()
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
	k.At(k.now, p.run)
}

// ParkTimeout parks for at most d and reports whether the wait timed out
// rather than being woken. On timeout the caller is responsible for removing
// itself from whatever wait queue it joined.
func (p *Proc) ParkTimeout(d Time) (timedOut bool) {
	seq := p.parkSeq + 1
	out := false
	p.k.After(d, func() {
		if p.parked && p.parkSeq == seq {
			out = true
			p.Wake()
		}
	})
	p.Park()
	return out
}
