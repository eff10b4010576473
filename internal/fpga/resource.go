// Package fpga models the FPGA device resources relevant to SNAcc: the
// Alveo U280's LUT/FF/BRAM/URAM totals and a per-component cost book from
// which the NVMe Streamer variants' utilization (the paper's Table 1) is
// estimated. The cost book is calibrated once against the paper's
// synthesis results; the estimator composes per-variant component
// inventories rather than returning table literals, so configuration
// changes (queue depth, buffer sizes) shift the estimate plausibly.
package fpga

import (
	"fmt"

	"snacc/internal/sim"
)

// Resources is a bill of FPGA resources.
type Resources struct {
	LUT  int
	FF   int
	BRAM float64 // BRAM36 equivalents (halves occur via BRAM18)
	// URAMBlocks counts UltraRAM blocks (32 KiB of data each as used by
	// the Streamer's buffer).
	URAMBlocks int
	// DRAMBytes is reserved card DRAM; HostDRAMBytes is pinned host
	// memory. Neither consumes fabric resources but both are reported in
	// Table 1.
	DRAMBytes     int64
	HostDRAMBytes int64
}

// Add accumulates r2 into r.
func (r *Resources) Add(r2 Resources) {
	r.LUT += r2.LUT
	r.FF += r2.FF
	r.BRAM += r2.BRAM
	r.URAMBlocks += r2.URAMBlocks
	r.DRAMBytes += r2.DRAMBytes
	r.HostDRAMBytes += r2.HostDRAMBytes
}

// Device is an FPGA part's resource totals.
type Device struct {
	Name       string
	LUT        int
	FF         int
	BRAM       float64
	URAMBlocks int
}

// URAMBlockBytes is the data capacity of one UltraRAM block as provisioned
// by the Streamer (4 KiB × 8 of the 288 Kb array).
const URAMBlockBytes = 32 * sim.KiB

// AlveoU280 returns the paper's evaluation device.
func AlveoU280() Device {
	return Device{
		Name:       "Alveo U280",
		LUT:        1303680,
		FF:         2607360,
		BRAM:       2016,
		URAMBlocks: 960,
	}
}

// Utilization reports r as fractions of the device, matching Table 1's
// percentage columns.
type Utilization struct {
	LUT, FF, BRAM, URAM float64
}

// Utilization computes fractional usage on dev.
func (r Resources) Utilization(dev Device) Utilization {
	return Utilization{
		LUT:  float64(r.LUT) / float64(dev.LUT),
		FF:   float64(r.FF) / float64(dev.FF),
		BRAM: r.BRAM / dev.BRAM,
		URAM: float64(r.URAMBlocks) / float64(dev.URAMBlocks),
	}
}

// String formats like a Table 1 row.
func (r Resources) String() string {
	return fmt.Sprintf("LUT %d, FF %d, BRAM %.1f, URAM %d blocks, DRAM %d MiB, host %d MiB",
		r.LUT, r.FF, r.BRAM, r.URAMBlocks, r.DRAMBytes/sim.MiB, r.HostDRAMBytes/sim.MiB)
}
