package pcie

import (
	"fmt"

	"snacc/internal/sim"
)

// Host bundles the root-complex side of the system: the host port, host
// DRAM with a content store, a pinned-buffer allocator, and write watches
// that let polled drivers observe completion queues without busy-loop
// events.
type Host struct {
	Port *Port
	Mem  *WatchedMem

	memBase uint64
	memSize int64
	brk     uint64
}

// HostConfig describes the host attachment.
type HostConfig struct {
	Link LinkConfig
	// MemBase/MemSize locate host DRAM in the bus address map.
	MemBase uint64
	MemSize int64
	// MemBytesPerSec and MemLatency parameterize the DRAM seen from PCIe.
	MemBytesPerSec float64
	MemLatency     sim.Time
}

// DefaultHostConfig models the EPYC 7302P host in the paper's testbed.
func DefaultHostConfig() HostConfig {
	return HostConfig{
		// The host "link" is the root complex itself: it terminates every
		// device link, so its serialization runs at memory-side bandwidth.
		Link: LinkConfig{
			Gen:                 Gen4,
			Lanes:               16,
			PropagationLatency:  50 * sim.Nanosecond,
			OverrideBytesPerSec: 45e9,
		},
		MemBase:        0x1_0000_0000,
		MemSize:        8 * sim.GiB,
		MemBytesPerSec: 50e9,
		MemLatency:     90 * sim.Nanosecond,
	}
}

// NewHost attaches the host to the fabric and maps its DRAM window.
func NewHost(f *Fabric, cfg HostConfig) *Host {
	mem := &WatchedMem{MemCompleter: NewMemCompleter(f.Kernel(), cfg.MemBytesPerSec, cfg.MemLatency)}
	mem.Base = cfg.MemBase
	port := f.AttachHostPort("host", cfg.Link, mem)
	f.MapRange(port, cfg.MemBase, cfg.MemSize)
	return &Host{Port: port, Mem: mem, memBase: cfg.MemBase, memSize: cfg.MemSize, brk: cfg.MemBase}
}

// Alloc reserves n bytes of host DRAM with the given power-of-two alignment
// and returns its bus address. Allocation is a bump pointer — simulations
// set up their buffers once.
func (h *Host) Alloc(n int64, align int64) uint64 {
	if align <= 0 {
		align = 1
	}
	if align&(align-1) != 0 {
		panic("pcie: Alloc alignment must be a power of two")
	}
	addr := (h.brk + uint64(align) - 1) &^ (uint64(align) - 1)
	if addr+uint64(n) > h.memBase+uint64(h.memSize) {
		panic(fmt.Sprintf("pcie: host memory exhausted allocating %d bytes", n))
	}
	h.brk = addr + uint64(n)
	return addr
}

// AllocChunks reserves count physically contiguous chunks of chunkSize
// each, scattered in the address space (the 4 MiB kernel-driver limit from
// §4.3), and returns their base addresses.
func (h *Host) AllocChunks(count int, chunkSize int64) []uint64 {
	bases := make([]uint64, count)
	for i := range bases {
		bases[i] = h.Alloc(chunkSize, 4096)
		// Leave a guard page so chunks are non-adjacent, forcing the
		// address-stitching path the paper describes.
		h.brk += 4096
	}
	return bases
}

// WatchedMem extends MemCompleter with write watches: a registered callback
// fires whenever a posted write lands in its range. Polled drivers use this
// to observe CQE arrival without simulating every poll-loop iteration.
type WatchedMem struct {
	*MemCompleter
	watches []watch
}

type watch struct {
	base uint64
	size int64
	fn   func(addr uint64, n int64, data []byte)
}

// Watch registers fn for writes intersecting [base, base+size).
func (w *WatchedMem) Watch(base uint64, size int64, fn func(addr uint64, n int64, data []byte)) {
	w.watches = append(w.watches, watch{base: base, size: size, fn: fn})
}

// CompleteWrite implements Completer, forwarding to the base memory and
// then notifying watchers, which see the content as bytes (nil for a
// timing-only write).
func (w *WatchedMem) CompleteWrite(addr uint64, n int64, data Payload) {
	w.MemCompleter.CompleteWrite(addr, n, data)
	for _, wa := range w.watches {
		if addr < wa.base+uint64(wa.size) && wa.base < addr+uint64(n) {
			wa.fn(addr, n, data.Bytes())
		}
	}
}
