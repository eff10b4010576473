package pcie

import (
	"fmt"
	"sort"

	"snacc/internal/sim"
)

// Completer receives transactions that target a port's address ranges.
// Methods run in kernel/event context (never concurrently); a Completer
// models its internal access time by deferring the done callback.
//
// Transactions optionally carry content as a Payload: a byte view for
// control traffic (queue entries, PRP lists, doorbells, registers), a page
// view for bulk data, and the empty Payload for timing-only traffic, which
// a Completer must tolerate.
//
// The calls are the snapshot points of functional data. A read's content is
// what the target holds when CompleteRead runs, and a write's lands when
// CompleteWrite runs. A memory target fills a page-view read with references
// to its own pages (SparseMem.Share) and installs a page-view write's pages
// by reference (SparseMem.Install); copy on write keeps both snapshots
// intact when either side is written later. A Payload belongs to the
// initiator: a completer that keeps its pages takes references of its own.
type Completer interface {
	// CompleteRead is invoked when a read request for [addr, addr+n)
	// arrives. Unless dst is empty (it then has length n) the
	// implementation fills it with the data at addr, before returning. It
	// must call done exactly once, at the simulated time the data is ready
	// to be returned on the wire.
	CompleteRead(addr uint64, n int64, dst Payload, done func())
	// CompleteWrite is invoked when the last byte of a posted write to
	// [addr, addr+n) has been delivered. data is empty for timing-only
	// writes.
	CompleteWrite(addr uint64, n int64, data Payload)
}

// region maps an address range to its owning port.
type region struct {
	base uint64
	size int64
	port *Port
}

// Fabric is a single-root PCIe topology: every port hangs off one root
// complex, and all traffic (host-bound or peer-to-peer) traverses it.
type Fabric struct {
	k     *sim.Kernel
	cfg   Config
	ports []*Port
	// regions is kept sorted by base for binary-search routing.
	regions []region
	iommu   *IOMMU
	host    *Port
}

// NewFabric creates an empty fabric.
func NewFabric(k *sim.Kernel, cfg Config) *Fabric {
	f := &Fabric{k: k, cfg: cfg}
	f.iommu = NewIOMMU(cfg.IOMMUEnabled)
	return f
}

// Kernel returns the simulation kernel.
func (f *Fabric) Kernel() *sim.Kernel { return f.k }

// IOMMU returns the fabric's IOMMU for permission programming.
func (f *Fabric) IOMMU() *IOMMU { return f.iommu }

// AttachPort adds a device to the fabric. The completer may be nil for
// ports that only ever initiate transactions.
func (f *Fabric) AttachPort(name string, lc LinkConfig, c Completer) *Port {
	lc = lc.withDefaults()
	bw := lc.BytesPerSec()
	pt := &Port{
		f:         f,
		name:      name,
		cfg:       lc,
		completer: c,
		// Propagation delay is accounted in hopLatency so the pipes model
		// pure serialization; this keeps cut-through forwarding simple.
		tx:          sim.NewPipe(f.k, bw, 0),
		rx:          sim.NewPipe(f.k, bw, 0),
		credits:     sim.NewGate(lc.ReadCredits),
		ctrlCredits: sim.NewGate(4),
		grants:      f.iommu.list(name),
	}
	f.ports = append(f.ports, pt)
	return pt
}

// AttachHostPort adds the host (root-complex memory) port. Transactions
// touching this port are never classified as peer-to-peer, and host-
// initiated DMA bypasses the IOMMU.
func (f *Fabric) AttachHostPort(name string, lc LinkConfig, c Completer) *Port {
	pt := f.AttachPort(name, lc, c)
	f.host = pt
	return pt
}

// HostPort returns the host port, or nil if none was attached.
func (f *Fabric) HostPort() *Port { return f.host }

// MapRange routes [base, base+size) to pt, modeling a BAR or a host DRAM
// window. Overlapping ranges are rejected.
func (f *Fabric) MapRange(pt *Port, base uint64, size int64) {
	if size <= 0 {
		panic("pcie: MapRange with non-positive size")
	}
	for _, r := range f.regions {
		if base < r.base+uint64(r.size) && r.base < base+uint64(size) {
			panic(fmt.Sprintf("pcie: range [%#x,+%#x) overlaps existing [%#x,+%#x) on %s",
				base, size, r.base, r.size, r.port.name))
		}
	}
	f.regions = append(f.regions, region{base: base, size: size, port: pt})
	sort.Slice(f.regions, func(i, j int) bool { return f.regions[i].base < f.regions[j].base })
}

// Route returns the port owning addr, or nil if unmapped.
func (f *Fabric) Route(addr uint64) *Port {
	lo, hi := 0, len(f.regions)
	for lo < hi {
		mid := (lo + hi) / 2
		r := f.regions[mid]
		switch {
		case addr < r.base:
			hi = mid
		case addr >= r.base+uint64(r.size):
			lo = mid + 1
		default:
			return r.port
		}
	}
	return nil
}

// routeOrPanic resolves addr and enforces IOMMU permissions for the
// initiating port.
func (f *Fabric) routeOrPanic(src *Port, addr uint64, n int64) *Port {
	dst := f.Route(addr)
	if dst == nil {
		panic(fmt.Sprintf("pcie: %s accessed unmapped address %#x", src.name, addr))
	}
	if src != f.host {
		if err := f.iommu.check(src.grants, src.name, addr, n); err != nil {
			panic(fmt.Sprintf("pcie: IOMMU fault: %v", err))
		}
	}
	return dst
}

// hopLatency returns the end-to-end propagation cost from src to dst: both
// link propagation delays, root-complex traversal, the P2P penalty and
// IOMMU translation where applicable.
func (f *Fabric) hopLatency(src, dst *Port) sim.Time {
	lat := src.cfg.PropagationLatency + f.cfg.RootComplexLatency + dst.cfg.PropagationLatency
	if src != f.host && dst != f.host {
		lat += f.cfg.P2PForwardLatency
	}
	if src != f.host && f.cfg.IOMMUEnabled {
		lat += f.cfg.IOMMULatency
	}
	return lat
}

// wireBytes returns payload-plus-header bytes for n payload bytes moved in
// chunks of at most chunk bytes.
func (f *Fabric) wireBytes(n, chunk int64) int64 {
	if n <= 0 {
		return 0
	}
	chunks := (n + chunk - 1) / chunk
	return n + chunks*f.cfg.TLPHeaderBytes
}
