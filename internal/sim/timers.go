package sim

// Timers is a queue of timers that all run the same delay, kept by the
// kernel beside its event heap. It suits a watchdog armed for every unit
// of work and almost always outlived by it: a timer whose work retired
// before it came due is dropped without running, costs no event and never
// moves the clock, where a plain After would still pop as a no-op and
// carry the clock to its deadline.
//
// A live timer is exact: Arm reserves the sequence number a plain After
// issued at the same moment would have taken, so fire runs at the same
// time and in the same order among other events as that After's callback.
// Because every timer runs the same delay, arming order is deadline order
// and the queue is a FIFO.
type Timers[T any] struct {
	k      *Kernel
	delay  Time
	live   func(T) bool
	expire func(T)
	q      FIFO[timer[T]]
}

type timer[T any] struct {
	at  Time
	seq uint64
	v   T
}

// timerQueue is the kernel's view of a Timers.
type timerQueue interface {
	// head returns the time and sequence number of the earliest pending
	// timer; ok is false when none is pending.
	head() (at Time, seq uint64, ok bool)
	// headLive reports whether the earliest pending timer is still live.
	headLive() bool
	// drop discards the earliest pending timer unrun.
	drop()
	// fire removes the earliest pending timer and runs it.
	fire()
	// clear discards every pending timer (Kernel.Close).
	clear()
}

// NewTimers returns a timer queue on k whose timers run delay (> 0) after
// they are armed. live reports whether a timer's work is still
// outstanding; it must be monotone — once it returns false for a value, it
// returns false for that value for good — because a timer it rejects is
// dropped without running, at any time before its deadline. fire runs a
// live timer when it comes due; whether live(v) holds at that moment is
// checked right before.
func NewTimers[T any](k *Kernel, delay Time, live func(T) bool, fire func(T)) *Timers[T] {
	if delay <= 0 {
		panic("sim: Timers delay must be positive")
	}
	t := &Timers[T]{k: k, delay: delay, live: live, expire: fire}
	k.timers = append(k.timers, t)
	return t
}

// Arm starts a timer for v, due delay from now. Retired timers at the head
// of the queue are dropped on the way, so a queue whose work retires in
// arming order stays short.
func (t *Timers[T]) Arm(v T) {
	k := t.k
	k.seq++
	moved := false
	for t.q.Len() > 0 && !t.live(t.q.Peek().v) {
		t.q.Pop()
		moved = true
	}
	t.q.Push(timer[T]{at: k.now + t.delay, seq: k.seq << 1, v: v})
	if moved || t.q.Len() == 1 {
		k.timerHeadMoved(t)
	}
}

func (t *Timers[T]) head() (Time, uint64, bool) {
	if t.q.Len() == 0 {
		return 0, 0, false
	}
	h := t.q.Peek()
	return h.at, h.seq, true
}

func (t *Timers[T]) headLive() bool { return t.live(t.q.Peek().v) }

func (t *Timers[T]) drop() {
	t.q.Pop()
	t.k.timerHeadMoved(t)
}

func (t *Timers[T]) fire() {
	v := t.q.Pop().v
	t.k.timerHeadMoved(t)
	t.expire(v)
}

func (t *Timers[T]) clear() { t.q = FIFO[timer[T]]{} }

// timerHeadMoved updates the kernel's earliest timer after tq's head
// changed: a later head in the current earliest queue needs a scan of
// every queue, a new head elsewhere only a comparison.
func (k *Kernel) timerHeadMoved(tq timerQueue) {
	if k.tq != tq {
		k.considerTimers(tq)
		return
	}
	k.tq = nil
	for _, q := range k.timers {
		k.considerTimers(q)
	}
}

// considerTimers makes q the earliest timer queue when its head is due
// before the current earliest one's.
func (k *Kernel) considerTimers(q timerQueue) {
	if at, seq, ok := q.head(); ok && (k.tq == nil || at < k.tAt || at == k.tAt && seq < k.tSeq) {
		k.tq, k.tAt, k.tSeq = q, at, seq
	}
}
