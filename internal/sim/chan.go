package sim

// Chan is a simulated bounded channel carrying values of type T between
// processes. It models a hardware FIFO: Put blocks while the FIFO is full,
// Get blocks while it is empty, and handoffs consume zero simulated time
// (data-path delay is modeled separately by Pipe or by the memory models).
//
// A capacity of zero gives rendezvous semantics: Put blocks until a Get
// arrives and vice versa, like an unregistered AXI handshake.
type Chan[T any] struct {
	k        *Kernel
	capacity int
	buf      FIFO[T]

	// putq holds blocked producers together with the value each carries;
	// getq holds blocked consumers, each with the node its value is
	// delivered into. A consumer's node goes back to free once it has
	// read its value, so a blocking Get allocates only when more
	// consumers block at once than ever before.
	putq FIFO[putWaiter[T]]
	getq FIFO[*getWaiter[T]]
	free []*getWaiter[T]
}

type putWaiter[T any] struct {
	p *Proc
	v T
}

type getWaiter[T any] struct {
	p     *Proc
	v     T
	valid bool
}

// NewChan creates a channel with the given capacity (>= 0).
func NewChan[T any](k *Kernel, capacity int) *Chan[T] {
	if capacity < 0 {
		panic("sim: negative channel capacity")
	}
	return &Chan[T]{k: k, capacity: capacity}
}

// Len reports the number of buffered values.
func (c *Chan[T]) Len() int { return c.buf.Len() }

// Cap reports the channel capacity.
func (c *Chan[T]) Cap() int { return c.capacity }

// Put delivers v into the channel, blocking p while the channel is full.
func (c *Chan[T]) Put(p *Proc, v T) {
	if !c.PutStep(p, v) {
		p.yield()
	}
}

// PutStep is Put for a step process: it delivers v now and reports true,
// or queues p with v and reports false, and p's next step runs once a
// consumer has taken v.
func (c *Chan[T]) PutStep(p *Proc, v T) bool {
	if c.TryPut(v) {
		return true
	}
	c.putq.Push(putWaiter[T]{p: p, v: v})
	p.ParkStep()
	return false
}

// TryPut delivers v without blocking and reports whether it succeeded.
func (c *Chan[T]) TryPut(v T) bool {
	// Fast path: a consumer is already waiting and nothing is buffered
	// ahead of us, so hand the value over directly.
	if c.getq.Len() > 0 && c.buf.Len() == 0 {
		g := c.getq.Pop()
		g.v, g.valid = v, true
		g.p.Wake()
		return true
	}
	if c.buf.Len() < c.capacity {
		c.buf.Push(v)
		return true
	}
	return false
}

// Get removes and returns the oldest value, blocking p while the channel is
// empty.
func (c *Chan[T]) Get(p *Proc) T {
	if v, ok := c.TryGet(); ok {
		return v
	}
	w := c.queueGetter(p)
	p.yield()
	return c.collect(w)
}

// GetStep is Get for a step process: it removes and returns the oldest
// value and true, or, while the channel is empty, queues p and reports
// false. The value a producer then hands over is p's: its next step must
// call GetStep on this channel again, which returns that value.
func (c *Chan[T]) GetStep(p *Proc) (T, bool) {
	if w, ok := p.wait.(*getWaiter[T]); ok {
		p.wait = nil
		return c.collect(w), true
	}
	if v, ok := c.TryGet(); ok {
		return v, true
	}
	p.wait = c.queueGetter(p)
	var zero T
	return zero, false
}

// queueGetter parks p as a consumer, returning the node a producer
// delivers its value into.
func (c *Chan[T]) queueGetter(p *Proc) *getWaiter[T] {
	var w *getWaiter[T]
	if n := len(c.free); n > 0 {
		w = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		w = new(getWaiter[T])
	}
	w.p = p
	c.getq.Push(w)
	p.ParkStep()
	return w
}

// collect takes the value delivered into w and recycles the node.
func (c *Chan[T]) collect(w *getWaiter[T]) T {
	if !w.valid {
		panic("sim: Chan.Get woken without a value")
	}
	v := w.v
	*w = getWaiter[T]{}
	c.free = append(c.free, w)
	return v
}

// TryGet removes and returns the oldest value without blocking.
func (c *Chan[T]) TryGet() (T, bool) {
	if c.buf.Len() > 0 {
		v := c.buf.Pop()
		// A freed slot admits the oldest blocked producer.
		if c.putq.Len() > 0 {
			w := c.putq.Pop()
			c.buf.Push(w.v)
			w.p.Wake()
		}
		return v, true
	}
	// Rendezvous: take directly from a blocked producer.
	if c.putq.Len() > 0 {
		w := c.putq.Pop()
		w.p.Wake()
		return w.v, true
	}
	var zero T
	return zero, false
}

// Peek returns the oldest value without removing it.
func (c *Chan[T]) Peek() (T, bool) {
	if c.buf.Len() > 0 {
		return c.buf.Peek(), true
	}
	if c.putq.Len() > 0 {
		return c.putq.Peek().v, true
	}
	var zero T
	return zero, false
}
