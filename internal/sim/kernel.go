// Package sim implements the deterministic discrete-event simulation kernel
// that underpins every hardware model in this repository: the PCIe fabric,
// the NVMe device, the FPGA memory systems, the Ethernet MAC and the NVMe
// Streamer itself.
//
// The kernel is cooperative and single-threaded in simulated time: exactly
// one process runs at any instant, events at equal timestamps fire in the
// order they were scheduled, and all randomness flows through an explicitly
// seeded PRNG. The same seed therefore yields a bit-identical simulation,
// which the test suite relies on throughout.
package sim

import (
	"fmt"
)

// Time is a point in simulated time, measured in nanoseconds from the start
// of the simulation. It doubles as a duration; arithmetic on Time values is
// plain integer arithmetic.
type Time int64

// Common durations, for readable literals such as 3*sim.Microsecond.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a floating-point second count to a Time.
func Seconds(s float64) Time { return Time(s*float64(Second) + 0.5) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// TransferTime returns the serialization delay of n bytes over a link moving
// bytesPerSec, rounded half-up to a whole nanosecond.
func TransferTime(n int64, bytesPerSec float64) Time {
	if n <= 0 || bytesPerSec <= 0 {
		return 0
	}
	return Time(float64(n)/bytesPerSec*float64(Second) + 0.5)
}

// event is one scheduled callback. seq breaks timestamp ties so scheduling
// order is execution order: it is the kernel's sequence counter shifted left
// by one, and the freed low bit (resumeBit) marks a process's resume.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// resumeBit tags the sequence number of a heap event that resumes a
// process; the process keeps that sequence number (Proc.resumeSeq).
const resumeBit = 1

// readyEvent is one entry of the ready FIFO: the resume of process p, or
// the plain callback fn when p is nil.
type readyEvent struct {
	fn func()
	p  *Proc
}

// eventLess orders events by timestamp, then by scheduling sequence.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is an inlined 4-ary min-heap over concrete event values. It is
// the kernel's hottest data structure: every scheduled callback passes
// through one push and one pop. Compared to container/heap it avoids the
// interface{} boxing allocation on every Push/Pop (the event struct does not
// fit an interface word) and the virtual Less/Swap calls; the 4-ary shape
// halves the tree depth, trading slightly wider sibling scans — which stay
// inside one cache line of events — for fewer memory levels per sift.
type eventQueue struct {
	ev []event
}

func (q *eventQueue) len() int { return len(q.ev) }

// push inserts e, sifting a hole up from the tail. Amortized zero
// allocations: the backing array only grows when the queue reaches a new
// high-water mark.
func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	ev := q.ev
	i := len(ev) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !eventLess(&e, &ev[parent]) {
			break
		}
		ev[i] = ev[parent]
		i = parent
	}
	ev[i] = e
}

// pop removes and returns the minimum event.
func (q *eventQueue) pop() event {
	ev := q.ev
	root := ev[0]
	n := len(ev) - 1
	last := ev[n]
	ev[n] = event{} // drop the fn reference so the closure can be collected
	q.ev = ev[:n]
	if n > 0 {
		q.siftDown(last)
	}
	return root
}

// siftDown places e into the hole at the root, walking the smallest child
// down each level.
func (q *eventQueue) siftDown(e event) {
	ev := q.ev
	n := len(ev)
	i := 0
	for {
		child := i<<2 + 1
		if child >= n {
			break
		}
		min := child
		end := child + 4
		if end > n {
			end = n
		}
		for j := child + 1; j < end; j++ {
			if eventLess(&ev[j], &ev[min]) {
				min = j
			}
		}
		if !eventLess(&ev[min], &e) {
			break
		}
		ev[i] = ev[min]
		i = min
	}
	ev[i] = e
}

// Kernel is the simulation scheduler. The zero value is not usable; create
// one with NewKernel.
//
// Pending work lives in three places. The event heap holds callbacks for
// later times. The ready FIFO holds callbacks for the current time, which
// need no sift: every heap event at the current time was scheduled before
// the clock reached it, so it carries a lower sequence number and runs
// first either way. Timer queues (Timers) hold same-delay timers whose
// work may retire before they fire; a retired timer is dropped without
// running and never moves the clock.
type Kernel struct {
	now      Time
	seq      uint64
	queue    eventQueue
	ready    FIFO[readyEvent]
	executed uint64
	// horizon is the horizon of the current Run; running is true while
	// Run is on the stack, the only time a blocking process may step the
	// kernel itself (Proc.yield), so a process unwinding from Close never
	// does. inline is true while a callback or timer runs on a blocking
	// process's stack.
	horizon Time
	running bool
	inline  bool
	// timers lists every timer queue; tq is the one whose head is due
	// first (nil when all are empty), and tAt, tSeq are that head's time
	// and sequence number.
	timers []timerQueue
	tq     timerQueue
	tAt    Time
	tSeq   uint64
	// nprocs counts live processes so Run can detect a deadlock: events
	// exhausted while non-daemon processes are still parked. Daemons are
	// service loops expected to idle forever.
	nprocs        int
	live          *Proc // head of the live-process list (Close stops them)
	parked        int
	daemons       int
	parkedDaemons int
}

// NewKernel returns a kernel with simulated time at zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// EventsExecuted returns the number of events the kernel has run — the
// simulator's work metric. A retired timer that was dropped without
// running is not an event.
func (k *Kernel) EventsExecuted() uint64 { return k.executed }

// At schedules fn to run at absolute time t. Scheduling in the past is a
// programming error and panics.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	if t == k.now {
		k.ready.Push(readyEvent{fn: fn})
		return
	}
	k.seq++
	k.queue.push(event{at: t, seq: k.seq << 1, fn: fn})
}

// resumeAt schedules p's resume at t (>= now). A coroutine's heap resume
// is tagged as p's so that a blocking process can tell its own resume from
// another's (resumeInline); a step process's is left untagged, because it
// runs on whatever stack takes it, like a plain callback.
func (k *Kernel) resumeAt(t Time, p *Proc) {
	p.blocked = true
	if t == k.now {
		k.ready.Push(readyEvent{p: p})
		return
	}
	k.seq++
	seq := k.seq << 1
	if p.step == nil {
		seq |= resumeBit
		p.resumeSeq = seq
	}
	k.queue.push(event{at: t, seq: seq, fn: p.run})
}

// After schedules fn to run d after the current time.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// Run executes events until the queue drains or the optional horizon is
// reached (horizon <= 0 means no horizon). It returns
// the time of the last executed event.
//
// Run panics if the event queue drains while processes remain parked — that
// is a deadlock in the modeled hardware and always a bug.
func (k *Kernel) Run(horizon Time) Time {
	k.horizon, k.running = horizon, true
	defer func() { k.running, k.inline = false, false }()
	for {
		// Ready events run once nothing scheduled earlier is due now.
		if k.ready.Len() > 0 && !k.dueNow() {
			k.executed++
			if r := k.ready.Pop(); r.p != nil {
				r.p.dispatch()
			} else {
				r.fn()
			}
			continue
		}
		if tq := k.tq; tq != nil && k.timerFirst() {
			// A retired head is dropped before it can move the clock,
			// even past the horizon.
			if !tq.headLive() {
				tq.drop()
				continue
			}
			if horizon > 0 && k.tAt > horizon {
				k.now = horizon
				return k.now
			}
			k.now = k.tAt
			k.executed++
			tq.fire()
			continue
		}
		if k.queue.len() == 0 {
			break
		}
		// Peek before popping: an over-horizon event stays where it is, so
		// hitting the horizon costs no pop/re-push re-heapification.
		if horizon > 0 && k.queue.ev[0].at > horizon {
			k.now = horizon
			return k.now
		}
		e := k.queue.pop()
		k.now = e.at
		k.executed++
		e.fn()
	}
	if k.parked-k.parkedDaemons > 0 && k.parked == k.nprocs {
		panic(fmt.Sprintf("sim: deadlock at %v: %d non-daemon processes parked with no pending events",
			k.now, k.parked-k.parkedDaemons))
	}
	return k.now
}

// resumeInline steps the kernel on the stack of p, which is blocking
// (Proc.yield): it runs due callbacks, timers and step-process resumes
// exactly as Run would, in the same order and counted the same way, until
// p's own resume comes next. It takes that resume as the one event the
// dispatch it replaces would have counted and reports true, so p continues
// without a coroutine switch. It reports false, leaving the queues as they
// are, when another coroutine's resume, the horizon or an empty queue comes
// next: those are Run's.
func (k *Kernel) resumeInline(p *Proc) bool {
	for {
		if k.ready.Len() > 0 && !k.dueNow() {
			r := k.ready.Peek()
			if r.p != nil && r.p != p && r.p.step == nil {
				return false
			}
			k.ready.Pop()
			k.executed++
			if r.p == p {
				return true
			}
			k.inline = true
			if r.p != nil {
				r.p.dispatch()
			} else {
				r.fn()
			}
			k.inline = false
			continue
		}
		if tq := k.tq; tq != nil && k.timerFirst() {
			if !tq.headLive() {
				tq.drop()
				continue
			}
			if k.horizon > 0 && k.tAt > k.horizon {
				return false
			}
			k.now = k.tAt
			k.executed++
			k.inline = true
			tq.fire()
			k.inline = false
			continue
		}
		if k.queue.len() == 0 {
			return false
		}
		head := &k.queue.ev[0]
		if k.horizon > 0 && head.at > k.horizon || head.seq&resumeBit != 0 && head.seq != p.resumeSeq {
			return false
		}
		e := k.queue.pop()
		k.now = e.at
		k.executed++
		if e.seq == p.resumeSeq {
			return true
		}
		k.inline = true
		e.fn()
		k.inline = false
	}
}

// timerFirst reports whether the earliest timer (k.tq non-nil) is due
// before the heap's head: earlier, or at the same time with a lower
// sequence number.
func (k *Kernel) timerFirst() bool {
	return k.queue.len() == 0 || k.tAt < k.queue.ev[0].at ||
		k.tAt == k.queue.ev[0].at && k.tSeq < k.queue.ev[0].seq
}

// dueNow reports whether a heap event or a timer is due at the current
// time; it precedes every ready event.
func (k *Kernel) dueNow() bool {
	return k.queue.len() > 0 && k.queue.ev[0].at == k.now || k.tq != nil && k.tAt == k.now
}
