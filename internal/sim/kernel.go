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
// order is execution order. arrival marks events delivered from another
// domain at a shard barrier; the conservative scheduler bounds their
// earliest possible cross-send by the domain's turnaround. silent marks
// locally scheduled events that promise to perform no cross-domain send,
// so they never constrain the earliest-output-time bound; an unmarked
// local event may send the moment it runs (see Kernel.earliestSend).
type event struct {
	at      Time
	seq     uint64
	arrival bool
	silent  bool
	fn      func()
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
type Kernel struct {
	now      Time
	seq      uint64
	queue    eventQueue
	stopped  bool
	executed uint64
	// nprocs counts live processes so Run can detect a deadlock: events
	// exhausted while non-daemon processes are still parked. Daemons are
	// service loops expected to idle forever.
	nprocs        int
	live          *Proc // head of the live-process list (Close stops them)
	parked        int
	daemons       int
	parkedDaemons int
	// localPending counts pending events that were scheduled locally (not
	// barrier-delivered arrivals), and minLocal is a monotone lower bound on
	// the earliest such event (maxTime when none are pending). Together they
	// let a shard bound the kernel's next possible cross-domain send by
	// head+turnaround whenever everything pending is an inbound arrival —
	// the common state right after a barrier (see earliestSend).
	localPending int
	minLocal     Time
	// inArrival flags that the event currently executing is a cross-domain
	// arrival, so Edge.At can reject a direct send that would break the
	// domain's declared turnaround; inSilent does the same for events
	// scheduled with AtSilent, which promise no cross-domain sends at all.
	inArrival bool
	inSilent  bool
}

// NewKernel returns a kernel with simulated time at zero.
func NewKernel() *Kernel { return &Kernel{minLocal: maxTime} }

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// EventsExecuted returns the number of events the kernel has run — the
// simulator's work metric.
func (k *Kernel) EventsExecuted() uint64 { return k.executed }

// At schedules fn to run at absolute time t. Scheduling in the past is a
// programming error and panics.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.seq++
	k.localPending++
	if t < k.minLocal {
		k.minLocal = t
	}
	k.queue.push(event{at: t, seq: k.seq, fn: fn})
}

// AtSilent schedules fn at absolute time t with the promise that fn performs
// no cross-domain send (Edge.At/After panic if it tries; scheduling further
// local events is fine). Models mark computation-only work — statistics
// folds, firmware pipeline stages, counter updates — so the conservative
// scheduler's earliest-output-time bound skips them entirely: a domain whose
// only pending locals are silent advertises its next send as far out as its
// turnaround allows, instead of pessimistically assuming every queued event
// might transmit. On a flat kernel AtSilent behaves exactly like At.
func (k *Kernel) AtSilent(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.seq++
	k.queue.push(event{at: t, seq: k.seq, silent: true, fn: fn})
}

// AfterSilent schedules fn d after the current time with AtSilent's
// no-cross-send promise.
func (k *Kernel) AfterSilent(d Time, fn func()) { k.AtSilent(k.now+d, fn) }

// atArrival schedules a barrier-delivered cross-domain event. It shares At's
// ordering semantics (seq assignment order is delivery order) but is exempt
// from the local-event accounting: an arrival's earliest transitive send is
// bounded by the domain's turnaround, not by its timestamp alone.
func (k *Kernel) atArrival(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, k.now))
	}
	k.seq++
	k.queue.push(event{at: t, seq: k.seq, arrival: true, fn: fn})
}

// finishPop maintains the local-event accounting after an event is popped
// for execution. Only plain local events participate: arrivals are bounded
// by the turnaround contract and silent events by their no-send promise.
func (k *Kernel) finishPop(e *event) {
	if !e.arrival && !e.silent {
		k.localPending--
		if k.localPending == 0 {
			k.minLocal = maxTime
		}
	}
}

// earliestSend returns a lower bound on the kernel clock value at which the
// domain could next perform a cross-domain send, given its declared
// turnaround. With no turnaround (or any locally scheduled event pending at
// the head) that is just the queue head: the head event may send the moment
// it runs. When everything pending up to the head is a barrier-delivered
// arrival, the turnaround contract pushes the bound to head+turnaround —
// the earliest-output-time refinement that keeps tightly coupled domains
// from throttling each other's windows to the raw link lookahead.
func (k *Kernel) earliestSend(turn Time) Time {
	if k.queue.len() == 0 {
		return maxTime
	}
	head := k.queue.ev[0].at
	if turn == 0 {
		return head
	}
	bound := head + turn
	if bound < head { // saturate on overflow
		bound = maxTime
	}
	if k.localPending > 0 {
		if k.minLocal <= head {
			return head
		}
		if k.minLocal < bound {
			return k.minLocal
		}
	}
	return bound
}

// After schedules fn to run d after the current time.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// Stop makes Run return after the event being processed completes.
func (k *Kernel) Stop() { k.stopped = true }

// Engine is an event loop a rig drains, reads the clock and event count
// of, and closes once done: a serial *Kernel, or a *Shard of domain kernels.
type Engine interface {
	Run(horizon Time) Time
	Now() Time
	EventsExecuted() uint64
	Close()
}

// Run executes events until the queue drains, Stop is called, or the
// optional horizon is reached (horizon <= 0 means no horizon). It returns
// the time of the last executed event.
//
// Run panics if the event queue drains while processes remain parked — that
// is a deadlock in the modeled hardware and always a bug.
func (k *Kernel) Run(horizon Time) Time {
	k.stopped = false
	for k.queue.len() > 0 && !k.stopped {
		// Peek before popping: an over-horizon event stays where it is, so
		// hitting the horizon costs no pop/re-push re-heapification.
		if horizon > 0 && k.queue.ev[0].at > horizon {
			k.now = horizon
			return k.now
		}
		e := k.queue.pop()
		k.finishPop(&e)
		k.now = e.at
		k.executed++
		e.fn()
	}
	if !k.stopped && k.queue.len() == 0 && k.parked-k.parkedDaemons > 0 && k.parked == k.nprocs {
		panic(fmt.Sprintf("sim: deadlock at %v: %d non-daemon processes parked with no pending events",
			k.now, k.parked-k.parkedDaemons))
	}
	return k.now
}
