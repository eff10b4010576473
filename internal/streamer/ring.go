package streamer

import (
	"fmt"

	"snacc/internal/sim"
)

// byteRing allocates 4 KiB-aligned buffer segments in FIFO order and frees
// them in the same order — the natural management for a buffer whose
// commands retire strictly in order (§4.2: "the respective data buffer
// space can be reused for the next NVMe read command"). When the tail
// cannot fit a request contiguously it pads to the wrap point, so segments
// are always physically contiguous (which is what makes the on-the-fly PRP
// computation possible).
type byteRing struct {
	capacity int64
	head     int64 // absolute offset of oldest live byte
	tail     int64 // absolute offset of next free byte
	live     int64 // bytes between head and tail (incl. padding)

	// segments tracks allocation sizes (with padding) for FIFO free.
	segments sim.FIFO[ringSeg]
	waiters  sim.FIFO[*sim.Proc]
	// maxLive records the occupancy high-water mark.
	maxLive int64
}

type ringSeg struct {
	off  int64 // offset within the buffer (wrapped)
	size int64 // allocation including any wrap padding
}

const ringAlign = 4096

func newByteRing(capacity int64) *byteRing {
	if capacity <= 0 || capacity%ringAlign != 0 {
		panic("streamer: ring capacity must be a positive multiple of 4 KiB")
	}
	return &byteRing{capacity: capacity}
}

// roundUp aligns n to the ring granularity.
func roundUp(n int64) int64 { return (n + ringAlign - 1) &^ (ringAlign - 1) }

// tryAlloc attempts a contiguous allocation of n (rounded) bytes. Each new
// command starts at a 4 KiB boundary (§4.3).
func (r *byteRing) tryAlloc(n int64) (off int64, ok bool) {
	need := roundUp(n)
	if need > r.capacity {
		panic(fmt.Sprintf("streamer: allocation %d exceeds ring capacity %d", n, r.capacity))
	}
	tailOff := r.tail % r.capacity
	pad := int64(0)
	if tailOff+need > r.capacity {
		// Pad out the tail so the segment stays contiguous.
		pad = r.capacity - tailOff
	}
	if r.live+pad+need > r.capacity {
		return 0, false
	}
	r.live += pad + need
	if r.live > r.maxLive {
		r.maxLive = r.live
	}
	r.tail += pad
	off = r.tail % r.capacity
	r.tail += need
	r.segments.Push(ringSeg{off: off, size: pad + need})
	return off, true
}

// alloc returns the offset of n bytes for step process p, or parks p and
// reports false; p's next step must call alloc again. Admission is strictly
// FIFO: a request that cannot be served at once joins the wait queue and
// only the queue head may allocate, so a large request is never starved by
// smaller ones behind it. Only the head is ever woken, so a p found at the
// head is one resuming, already queued.
func (r *byteRing) alloc(p *sim.Proc, n int64) (int64, bool) {
	head := r.waiters.Len() > 0 && r.waiters.Peek() == p
	if head || r.waiters.Len() == 0 {
		if off, ok := r.tryAlloc(n); ok {
			if head {
				r.waiters.Pop()
				// The new head may also fit; let it try.
				if r.waiters.Len() > 0 {
					r.waiters.Peek().Wake()
				}
			}
			return off, true
		}
	}
	if !head {
		r.waiters.Push(p)
	}
	p.ParkStep()
	return 0, false
}

// free releases the oldest segment (FIFO) and lets the head waiter retry.
func (r *byteRing) free() {
	if r.segments.Len() == 0 {
		panic("streamer: ring free without live segment")
	}
	seg := r.segments.Pop()
	r.head += seg.size
	r.live -= seg.size
	if r.waiters.Len() > 0 {
		r.waiters.Peek().Wake()
	}
}

// slotPool is the fixed-slot allocator the out-of-order variant uses:
// buffers free in completion order, so equal-size slots replace the FIFO
// ring.
type slotPool struct {
	slotBytes int64
	free      sim.FIFO[int64]
	waiters   sim.FIFO[*sim.Proc]
}

func newSlotPool(capacity, slotBytes int64) *slotPool {
	if slotBytes%ringAlign != 0 {
		panic("streamer: slot size must be 4 KiB aligned")
	}
	p := &slotPool{slotBytes: slotBytes}
	for off := int64(0); off+slotBytes <= capacity; off += slotBytes {
		p.free.Push(off)
	}
	if p.free.Len() == 0 {
		panic("streamer: slot pool smaller than one slot")
	}
	return p
}

// alloc returns a free slot for step process p, or parks p and reports
// false, with byteRing.alloc's FIFO admission.
func (sp *slotPool) alloc(p *sim.Proc, n int64) (int64, bool) {
	if n > sp.slotBytes {
		panic(fmt.Sprintf("streamer: request %d exceeds slot size %d", n, sp.slotBytes))
	}
	head := sp.waiters.Len() > 0 && sp.waiters.Peek() == p
	if (head || sp.waiters.Len() == 0) && sp.free.Len() > 0 {
		if head {
			sp.waiters.Pop()
		}
		off := sp.free.Pop()
		if sp.waiters.Len() > 0 && sp.free.Len() > 0 {
			sp.waiters.Peek().Wake()
		}
		return off, true
	}
	if !head {
		sp.waiters.Push(p)
	}
	p.ParkStep()
	return 0, false
}

func (sp *slotPool) release(off int64) {
	sp.free.Push(off)
	if sp.waiters.Len() > 0 {
		sp.waiters.Peek().Wake()
	}
}
