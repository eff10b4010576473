package sim

// FIFO is a first-in, first-out queue on a ring buffer: every model queue
// (channel buffers, blocked producers and consumers, admission waiters,
// stalled completions) is one. A push that finds the ring full doubles it,
// so the ring grows only at a new high-water mark and a queue cycling below
// its peak allocates nothing, where a slide-and-append slice reallocates
// every few cycles. The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T // len is zero or a power of two
	head int // index of the oldest element
	n    int // element count
}

// Len reports the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the oldest element. It panics on an empty queue.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop from an empty FIFO")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero // drop the reference for the garbage collector
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Peek returns the oldest element without removing it. It panics on an
// empty queue.
func (q *FIFO[T]) Peek() T {
	if q.n == 0 {
		panic("sim: Peek into an empty FIFO")
	}
	return q.buf[q.head]
}

// At returns the i-th oldest element (0 is the head) without removing it.
func (q *FIFO[T]) At(i int) T {
	if i < 0 || i >= q.n {
		panic("sim: FIFO index out of range")
	}
	return q.buf[(q.head+i)&(len(q.buf)-1)]
}

// grow doubles the ring, unwrapping the queued elements to its start.
func (q *FIFO[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 4
	}
	buf := make([]T, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = buf, 0
}
