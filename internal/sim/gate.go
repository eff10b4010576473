package sim

// Gate is a callback-style counting semaphore for event-driven models that
// have no process to park: PCIe outstanding-read credits, the NVMe
// controller's execution contexts. A waiter that finds no unit free queues
// in FIFO order and is granted one, in its Grant method, when a holder
// releases; a free unit is granted at once, inside Acquire.
type Gate struct {
	avail int
	q     FIFO[Grantee]
}

// Grantee is a Gate waiter. Models pass their own pooled request structs,
// so queueing a waiter allocates nothing.
type Grantee interface {
	// Grant runs when the waiter holds one unit of the gate.
	Grant()
}

// NewGate returns a gate with n free units.
func NewGate(n int) *Gate { return &Gate{avail: n} }

// Acquire grants w a unit now if one is free, or queues it.
func (g *Gate) Acquire(w Grantee) {
	if g.avail > 0 {
		g.avail--
		w.Grant()
		return
	}
	g.q.Push(w)
}

// Release returns a unit, handing it straight to the oldest waiter if any.
func (g *Gate) Release() {
	if g.q.Len() > 0 {
		g.q.Pop().Grant()
		return
	}
	g.avail++
}
