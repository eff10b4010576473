// Package memmodel provides timing models for the memories an NVMe Streamer
// can stage payload data in: on-die URAM, on-board DRAM behind a single
// memory controller, pinned host DRAM reachable only in 4 MiB physically
// contiguous chunks, and the HBM stack of the multi-SSD extension. The
// paper's on-board-DRAM variant coalesces the NVMe controller's PCIe reads
// into 4 KiB bursts (§4.3); the model gets the same effect from the
// controller's 4 KiB max read request, so no coalescer sits in front of
// the DRAM.
//
// All models share the Memory interface: callback-style accesses carrying
// optional content as a pcie.Payload, with timing produced by the model.
// Content lives in a pcie.SparseMem so functional tests can verify data end
// to end while bulk benchmarks run timing-only; page-view payloads move in
// and out of it by reference.
package memmodel

import "snacc/internal/pcie"

// Memory is a byte-addressable staging memory with modeled access timing.
// Addresses are local to the memory (zero-based).
type Memory interface {
	// ReadAccess fetches n bytes at addr, filling dst unless it is empty,
	// and calls done when the data is available. dst snapshots the content
	// at the call (SparseMem.Share).
	ReadAccess(addr uint64, n int64, dst pcie.Payload, done func())
	// WriteAccess deposits n bytes at addr (content from data unless it is
	// empty) and calls done when the memory has absorbed them. The content
	// lands at the call (SparseMem.Install); the memory takes its own
	// references to data's pages.
	WriteAccess(addr uint64, n int64, data pcie.Payload, done func())
	// Size returns the capacity in bytes.
	Size() int64
	// Store exposes the content backing store.
	Store() *pcie.SparseMem
}
