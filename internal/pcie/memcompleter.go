package pcie

import "snacc/internal/sim"

// MemCompleter is a simple memory target: fixed access latency plus a
// serializing internal bandwidth. It models host DRAM seen from the PCIe
// side (the real memory controller has far more bandwidth than the
// 16-32 GB/s a PCIe device can demand of it, so a single pipe suffices) and
// is also used as a plain BAR RAM in tests. Richer on-card memories with
// read/write turnaround live in internal/memmodel.
//
// Addresses presented to the completer are global bus addresses; Base is
// subtracted before touching the backing store so the store is indexed from
// zero.
type MemCompleter struct {
	k *sim.Kernel
	// AccessLatency is paid by every read before data starts returning.
	AccessLatency sim.Time
	// Base is the bus address this memory is mapped at.
	Base uint64
	// internal serializes accesses at the memory's bandwidth.
	internal *sim.Pipe
	// store holds content, when functional data is in play.
	store *SparseMem

	reads, writes int64
}

// NewMemCompleter creates a memory with the given bandwidth and read
// latency, backed by a sparse content store.
func NewMemCompleter(k *sim.Kernel, bytesPerSec float64, accessLatency sim.Time) *MemCompleter {
	return &MemCompleter{
		k:             k,
		AccessLatency: accessLatency,
		internal:      sim.NewPipe(k, bytesPerSec, 0),
		store:         NewSparseMem(),
	}
}

// Store exposes the backing content store so host-local software models
// (drivers writing queue entries, applications preparing buffers) can touch
// memory without crossing the fabric.
func (m *MemCompleter) Store() *SparseMem { return m.store }

// CompleteRead implements Completer.
func (m *MemCompleter) CompleteRead(addr uint64, n int64, dst Payload, done func()) {
	m.reads++
	m.store.Share(addr-m.Base, dst)
	ready := m.internal.Reserve(n) + m.AccessLatency
	m.k.At(ready, done)
}

// CompleteWrite implements Completer.
func (m *MemCompleter) CompleteWrite(addr uint64, n int64, data Payload) {
	m.writes++
	m.store.Install(addr-m.Base, data)
	m.internal.Reserve(n)
}

// Reads returns the number of read transactions served.
func (m *MemCompleter) Reads() int64 { return m.reads }

// Writes returns the number of write transactions received.
func (m *MemCompleter) Writes() int64 { return m.writes }
