package sim

// Resource is a counting semaphore with FIFO admission, used for bounded
// pools such as submission-queue slots, outstanding-read credits, or buffer
// regions. Grants are strictly FIFO: a large request at the head blocks
// smaller requests behind it, matching how hardware credit schemes behave.
type Resource struct {
	k        *Kernel
	capacity int64
	inUse    int64
	q        FIFO[resWaiter]
}

type resWaiter struct {
	p *Proc
	n int64
}

// NewResource creates a resource with the given total capacity.
func NewResource(k *Kernel, capacity int64) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{k: k, capacity: capacity}
}

// Capacity returns the total capacity.
func (r *Resource) Capacity() int64 { return r.capacity }

// InUse returns the currently held amount.
func (r *Resource) InUse() int64 { return r.inUse }

// Available returns the unheld amount.
func (r *Resource) Available() int64 { return r.capacity - r.inUse }

// Acquire obtains n units, blocking p until they are available. Requests
// larger than the capacity can never succeed and panic immediately.
func (r *Resource) Acquire(p *Proc, n int64) {
	if !r.AcquireStep(p, n) {
		p.yield()
	}
}

// AcquireStep is Acquire for a step process: it obtains n units now and
// reports true, or queues p and reports false, and p's next step runs once
// the units are granted.
func (r *Resource) AcquireStep(p *Proc, n int64) bool {
	if n <= 0 {
		return true
	}
	if n > r.capacity {
		panic("sim: Resource.Acquire request exceeds capacity")
	}
	if r.q.Len() == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return true
	}
	r.q.Push(resWaiter{p: p, n: n})
	p.ParkStep()
	return false
}

// Release returns n units and admits queued waiters in FIFO order.
func (r *Resource) Release(n int64) {
	if n <= 0 {
		return
	}
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: Resource.Release below zero")
	}
	for r.q.Len() > 0 {
		head := r.q.Peek()
		if r.inUse+head.n > r.capacity {
			break
		}
		r.inUse += head.n
		r.q.Pop()
		head.p.Wake()
	}
}
