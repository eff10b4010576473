package memmodel

import (
	"fmt"

	"snacc/internal/pcie"
	"snacc/internal/sim"
)

// DRAM models off-chip DRAM behind a single memory controller, the
// configuration TaPaSCo limits the U280 design to (§5.2). Both directions
// share one data bus, and switching the bus between reads and writes costs a
// turnaround penalty. When the NVMe controller's read stream (fetching write
// payloads over PCIe) interleaves with the Streamer filling the buffer for
// the next commands, the controller pays that penalty continuously — the
// mechanism behind the on-board-DRAM variant's reduced 4.6–4.8 GB/s write
// bandwidth in Figure 4a.
type DRAM struct {
	k     *sim.Kernel
	cfg   DRAMConfig
	store *pcie.SparseMem

	busyUntil sim.Time
	lastDir   dramDir
	lastEnd   uint64

	turnarounds int64
	rowMisses   int64
	accesses    int64
}

type dramDir uint8

const (
	dirNone dramDir = iota
	dirRead
	dirWrite
)

// DRAMConfig parameterizes the controller.
type DRAMConfig struct {
	Size int64
	// BytesPerSec is the peak data-bus bandwidth.
	BytesPerSec float64
	// AccessLatency is the pipeline latency of a row-hit access.
	AccessLatency sim.Time
	// Turnaround is charged when the bus switches between read and write.
	Turnaround sim.Time
	// RowMissPenalty is charged when an access does not continue
	// sequentially from the previous one (precharge + activate).
	RowMissPenalty sim.Time
	// RowBytes is the open-row window within which sequential accesses
	// count as row hits.
	RowBytes int64
}

// DefaultDRAMConfig returns one DDR4-2400 channel as on the Alveo U280.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{
		Size:           16 * sim.GiB,
		BytesPerSec:    19.2e9,
		AccessLatency:  200 * sim.Nanosecond,
		Turnaround:     30 * sim.Nanosecond,
		RowMissPenalty: 45 * sim.Nanosecond,
		RowBytes:       8 * sim.KiB,
	}
}

// NewDRAM builds a DRAM controller model.
func NewDRAM(k *sim.Kernel, cfg DRAMConfig) *DRAM {
	if cfg.Size <= 0 {
		panic("memmodel: DRAM size must be positive")
	}
	return &DRAM{k: k, cfg: cfg, store: pcie.NewSparseMem()}
}

// Size implements Memory.
func (d *DRAM) Size() int64 { return d.cfg.Size }

// Store implements Memory.
func (d *DRAM) Store() *pcie.SparseMem { return d.store }

// Turnarounds reports how many read/write bus switches occurred.
func (d *DRAM) Turnarounds() int64 { return d.turnarounds }

// RowMisses reports non-sequential access count.
func (d *DRAM) RowMisses() int64 { return d.rowMisses }

// Accesses reports the total access count.
func (d *DRAM) Accesses() int64 { return d.accesses }

func (d *DRAM) check(addr uint64, n int64) {
	if n < 0 || addr+uint64(n) > uint64(d.cfg.Size) {
		panic(fmt.Sprintf("memmodel: DRAM access [%#x,+%#x) outside %d-byte memory", addr, n, d.cfg.Size))
	}
}

// schedule books one access on the shared bus and returns its completion.
func (d *DRAM) schedule(dir dramDir, addr uint64, n int64) sim.Time {
	d.accesses++
	start := d.k.Now()
	if d.busyUntil > start {
		start = d.busyUntil
	}
	var overhead sim.Time
	if d.lastDir != dirNone && d.lastDir != dir {
		overhead += d.cfg.Turnaround
		d.turnarounds++
	}
	sequential := addr >= d.lastEnd && addr < d.lastEnd+uint64(d.cfg.RowBytes) && d.lastDir == dir
	if !sequential {
		overhead += d.cfg.RowMissPenalty
		d.rowMisses++
	}
	d.lastDir = dir
	d.lastEnd = addr + uint64(n)
	d.busyUntil = start + overhead + sim.TransferTime(n, d.cfg.BytesPerSec)
	return d.busyUntil + d.cfg.AccessLatency
}

// arbGranule is the arbitration granularity: a large access books the bus
// one granule at a time in event order, so competing requesters interleave
// at burst granularity the way a real controller schedules — a 1 MiB buffer
// fill must not monopolize the bus against the NVMe controller's reads.
const arbGranule = 4 * sim.KiB

// access books n bytes granule by granule and calls done at completion.
func (d *DRAM) access(dir dramDir, addr uint64, n int64, done func()) {
	var step func(off int64)
	step = func(off int64) {
		m := int64(arbGranule)
		if m > n-off {
			m = n - off
		}
		t := d.schedule(dir, addr+uint64(off), m)
		if off+m >= n {
			d.k.At(t, done)
			return
		}
		// Re-arbitrate for the next granule when this one leaves the bus.
		d.k.At(t-d.cfg.AccessLatency, func() { step(off + m) })
	}
	step(0)
}

// ReadAccess implements Memory.
func (d *DRAM) ReadAccess(addr uint64, n int64, dst pcie.Payload, done func()) {
	d.check(addr, n)
	d.store.Share(addr, dst)
	d.access(dirRead, addr, n, done)
}

// WriteAccess implements Memory.
func (d *DRAM) WriteAccess(addr uint64, n int64, data pcie.Payload, done func()) {
	d.check(addr, n)
	d.store.Install(addr, data)
	d.access(dirWrite, addr, n, done)
}
