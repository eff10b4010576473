// Package pcie models a PCI Express fabric at transaction granularity:
// ports with full-duplex serializing links, a root complex that forwards
// both host-bound and peer-to-peer traffic, posted writes, split-transaction
// reads with bounded outstanding-request credits, an IOMMU gating device-
// initiated DMA, and BAR-based address decoding.
//
// The model is deliberately coarser than TLP-by-TLP simulation — payloads
// are charged per-chunk header overhead rather than materialized — but it
// keeps the two properties the SNAcc paper's evaluation hinges on:
//
//  1. Posted writes stream at link rate regardless of latency, while
//     non-posted reads are throughput-bound by outstanding-credit count
//     divided by round-trip latency. This is why the paper's sequential
//     *read* path (SSD pushes data with writes) hits 6.9 GB/s in every
//     buffer variant while the *write* path (SSD pulls data with reads)
//     degrades across P2P.
//  2. Peer-to-peer transactions pay an extra root-complex forwarding
//     penalty relative to host-memory transactions.
package pcie

import "snacc/internal/sim"

// Generation selects the per-lane data rate.
type Generation int

// PCIe generations supported by the model.
const (
	Gen3 Generation = 3
	Gen4 Generation = 4
	Gen5 Generation = 5
)

// laneGBps returns the effective per-lane bandwidth in bytes/second after
// encoding overhead (128b/130b for Gen3+), before TLP header overhead.
func (g Generation) laneGBps() float64 {
	switch g {
	case Gen3:
		return 0.985e9 // 8 GT/s * 128/130
	case Gen4:
		return 1.969e9 // 16 GT/s * 128/130
	case Gen5:
		return 3.938e9 // 32 GT/s * 128/130
	default:
		panic("pcie: unknown generation")
	}
}

// LinkConfig describes one port's link to the root complex.
type LinkConfig struct {
	Gen   Generation
	Lanes int
	// PropagationLatency is the one-way delay of the link (PHY + retimer).
	PropagationLatency sim.Time
	// MaxPayload is the maximum TLP payload (bytes) for writes and read
	// completions through this port.
	MaxPayload int64
	// MaxReadRequest is the maximum read request size issued by this port.
	MaxReadRequest int64
	// ReadCredits bounds the number of outstanding non-posted read requests
	// this port's DMA engine keeps in flight. This is the knob behind the
	// paper's P2P write-bandwidth ceiling.
	ReadCredits int
	// OverrideBytesPerSec, when positive, replaces the Gen×Lanes-derived
	// serialization bandwidth. The host port uses it: the root complex
	// aggregates several device links, so its ingest runs at memory-side
	// bandwidth rather than any single link's width.
	OverrideBytesPerSec float64
}

// BytesPerSec returns the effective link bandwidth.
func (lc LinkConfig) BytesPerSec() float64 {
	if lc.OverrideBytesPerSec > 0 {
		return lc.OverrideBytesPerSec
	}
	return lc.Gen.laneGBps() * float64(lc.Lanes)
}

// withDefaults fills unset fields with standards-typical values.
func (lc LinkConfig) withDefaults() LinkConfig {
	if lc.MaxPayload == 0 {
		lc.MaxPayload = 512
	}
	if lc.MaxReadRequest == 0 {
		lc.MaxReadRequest = 512
	}
	if lc.ReadCredits == 0 {
		lc.ReadCredits = 32
	}
	if lc.PropagationLatency == 0 {
		lc.PropagationLatency = 150 * sim.Nanosecond
	}
	return lc
}

// Config describes fabric-wide parameters.
type Config struct {
	// TLPHeaderBytes is charged once per payload chunk on the wire.
	TLPHeaderBytes int64
	// RootComplexLatency is paid by every transaction traversing the root
	// complex (all of them, in this topology).
	RootComplexLatency sim.Time
	// P2PForwardLatency is paid *additionally* by transactions whose source
	// and destination are both non-host ports.
	P2PForwardLatency sim.Time
	// IOMMUEnabled turns on DMA permission checks for device-initiated
	// transactions; the host driver must grant windows explicitly, exactly
	// as SNAcc's setup requires (§4, "permissions must be granted by the
	// IOMMU").
	IOMMUEnabled bool
	// IOMMULatency is the translation lookup cost added to device DMA when
	// the IOMMU is enabled (IOTLB hit; misses are not modeled).
	IOMMULatency sim.Time
}

// DefaultConfig returns the fabric parameters used by the paper's testbed
// model (EPYC 7302P root complex).
func DefaultConfig() Config {
	return Config{
		TLPHeaderBytes:     24,
		RootComplexLatency: 150 * sim.Nanosecond,
		P2PForwardLatency:  420 * sim.Nanosecond,
		IOMMUEnabled:       true,
		IOMMULatency:       40 * sim.Nanosecond,
	}
}
