package memmodel

import (
	"snacc/internal/pcie"
	"snacc/internal/sim"
)

// BurstCoalescer merges small sequential reads into page-sized bursts
// against an underlying memory, reproducing §4.3: "To maximize DRAM
// bandwidth, we combine smaller memory accesses made by the NVMe controller
// over PCIe into a joined 4 kB burst access whenever they follow a simple
// incrementing pattern."
//
// A read that continues sequentially from the open burst is served from the
// burst buffer at BRAM speed; any other read opens a new burst of BurstBytes
// (clipped to the memory end) with one underlying access. Writes pass
// through unchanged and invalidate an overlapping open burst.
type BurstCoalescer struct {
	k   *sim.Kernel
	mem Memory

	// BurstBytes is the prefetch window (4 KiB in the paper).
	BurstBytes int64
	// HitLatency is the BRAM buffer access time for coalesced hits.
	HitLatency sim.Time

	burstBase    uint64
	burstEnd     uint64 // exclusive; burstBase == burstEnd means no open burst
	burstReadyAt sim.Time

	hits, fills int64
}

// NewBurstCoalescer wraps mem with a coalescing read buffer.
func NewBurstCoalescer(k *sim.Kernel, mem Memory, burstBytes int64, hitLatency sim.Time) *BurstCoalescer {
	if burstBytes <= 0 {
		panic("memmodel: burst size must be positive")
	}
	return &BurstCoalescer{k: k, mem: mem, BurstBytes: burstBytes, HitLatency: hitLatency}
}

// Size implements Memory.
func (c *BurstCoalescer) Size() int64 { return c.mem.Size() }

// Store implements Memory.
func (c *BurstCoalescer) Store() *pcie.SparseMem { return c.mem.Store() }

// Hits reports reads served from an open burst.
func (c *BurstCoalescer) Hits() int64 { return c.hits }

// Fills reports underlying burst fetches.
func (c *BurstCoalescer) Fills() int64 { return c.fills }

// ReadAccess implements the Memory read side with coalescing.
func (c *BurstCoalescer) ReadAccess(addr uint64, n int64, dst pcie.Payload, done func()) {
	end := addr + uint64(n)
	if addr >= c.burstBase && end <= c.burstEnd {
		// Hit in the open burst: serve from the BRAM buffer once the fill
		// that produced it has landed.
		c.hits++
		c.mem.Store().Share(addr, dst)
		at := c.k.Now() + c.HitLatency
		if c.burstReadyAt > at {
			at = c.burstReadyAt
		}
		c.k.At(at, done)
		return
	}
	// Miss: open a new burst starting at addr.
	c.fills++
	burstLen := c.BurstBytes
	if int64(addr)+burstLen > c.mem.Size() {
		burstLen = c.mem.Size() - int64(addr)
	}
	if burstLen < n {
		burstLen = n
	}
	c.burstBase = addr
	c.burstEnd = addr + uint64(burstLen)
	c.mem.ReadAccess(addr, burstLen, pcie.Payload{}, func() {
		c.burstReadyAt = c.k.Now()
		c.mem.Store().Share(addr, dst)
		c.k.At(c.k.Now()+c.HitLatency, done)
	})
}

// WriteAccess forwards to the underlying memory, invalidating the burst if
// it overlaps.
func (c *BurstCoalescer) WriteAccess(addr uint64, n int64, data pcie.Payload, done func()) {
	if addr < c.burstEnd && c.burstBase < addr+uint64(n) {
		c.burstBase, c.burstEnd = 0, 0
	}
	c.mem.WriteAccess(addr, n, data, done)
}
