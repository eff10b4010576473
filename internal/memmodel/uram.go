package memmodel

import (
	"fmt"

	"snacc/internal/pcie"
	"snacc/internal/sim"
)

// URAM models a block of on-die UltraRAM assembled into a buffer: dual
// ported (reads and writes proceed independently), one access per cycle per
// port at the fabric width, and a short pipeline latency. On the Alveo U280
// the Streamer clocks it at the 300 MHz memory-controller frequency with a
// 64-byte AXI width, giving 19.2 GB/s per port — comfortably above both the
// PCIe x16 link and the SSD, which is why the paper finds the 4 MB URAM
// buffer "poses no limitation on bandwidth" (§5.2).
type URAM struct {
	k         *sim.Kernel
	size      int64
	latency   sim.Time
	readPort  *sim.Pipe
	writePort *sim.Pipe
	store     *pcie.SparseMem
}

// URAMConfig parameterizes a URAM buffer.
type URAMConfig struct {
	Size       int64    // bytes
	WidthBytes int64    // AXI data width
	ClockHz    float64  // fabric clock
	Latency    sim.Time // pipeline/arbiter latency per access
}

// NewURAM builds a URAM buffer.
func NewURAM(k *sim.Kernel, cfg URAMConfig) *URAM {
	if cfg.Size <= 0 {
		panic("memmodel: URAM size must be positive")
	}
	bw := float64(cfg.WidthBytes) * cfg.ClockHz
	return &URAM{
		k:         k,
		size:      cfg.Size,
		latency:   cfg.Latency,
		readPort:  sim.NewPipe(k, bw, 0),
		writePort: sim.NewPipe(k, bw, 0),
		store:     pcie.NewSparseMem(),
	}
}

// Size implements Memory.
func (u *URAM) Size() int64 { return u.size }

// Store implements Memory.
func (u *URAM) Store() *pcie.SparseMem { return u.store }

func (u *URAM) check(addr uint64, n int64) {
	if n < 0 || addr+uint64(n) > uint64(u.size) {
		panic(fmt.Sprintf("memmodel: URAM access [%#x,+%#x) outside %d-byte buffer", addr, n, u.size))
	}
}

// ReadAccess implements Memory.
func (u *URAM) ReadAccess(addr uint64, n int64, dst pcie.Payload, done func()) {
	u.check(addr, n)
	u.store.Share(addr, dst)
	ready := u.readPort.Reserve(n) + u.latency
	u.k.At(ready, done)
}

// WriteAccess implements Memory.
func (u *URAM) WriteAccess(addr uint64, n int64, data pcie.Payload, done func()) {
	u.check(addr, n)
	u.store.Install(addr, data)
	ready := u.writePort.Reserve(n) + u.latency
	u.k.At(ready, done)
}
