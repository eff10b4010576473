package fpga

import "snacc/internal/streamer"

// Component cost book, calibrated against the paper's Table 1 synthesis
// results for queue depth 64. Entries that scale with configuration carry
// explicit per-unit terms.
//
// Shared components (every variant):
//   - coreFSM: submission + retirement state machines, command split logic
//   - axisPort ×4: the PE-facing stream interfaces
//   - sqFIFO: the in-IP submission queue (distributed RAM)
//   - cqROB: the reorder-buffer completion queue
//
// Variant-specific:
//   - URAM: shadow-address PRP computation + URAM buffer controller
//   - On-board DRAM: PRP register file, DRAM AXI master, 4 KiB burst
//     coalescing logic (extra BRAM FIFOs, §5.4)
//   - Host DRAM: PRP register file with chunk stitching, PCIe-side AXI
//     master, smaller burst buffering
var (
	costCoreFSM = Resources{LUT: 3200, FF: 3600}
	costAXISx4  = Resources{LUT: 1000, FF: 1200}

	// sqFIFO scales with queue depth (64 × 64 B at depth 64).
	costSQPerEntry = Resources{LUT: 9, FF: 11}
	costSQBase     = Resources{LUT: 24, FF: -4}

	// cqROB scales with queue depth too.
	costCQPerEntry = Resources{LUT: 12, FF: 15}
	costCQBase     = Resources{LUT: 32, FF: 40}

	costPRPShadow = Resources{LUT: 360, FF: 488}
	costURAMCtrl  = Resources{LUT: 1300, FF: 1400}

	costPRPRegfilePerEntry = Resources{LUT: 24, FF: 28}
	costPRPRegfileBase     = Resources{LUT: 264, FF: 308}
	costDRAMAXI            = Resources{LUT: 3200, FF: 3800, BRAM: 10}
	costDRAMBurst          = Resources{LUT: 3463, FF: 4087, BRAM: 14}

	costChunkStitch = Resources{LUT: 300, FF: 200}
	costPCIeAXI     = Resources{LUT: 2800, FF: 3100, BRAM: 10}
	costHostBurst   = Resources{LUT: 1728, FF: 1473, BRAM: 7.5}
)

func scaled(per Resources, n int, base Resources) Resources {
	return Resources{
		LUT:  per.LUT*n + base.LUT,
		FF:   per.FF*n + base.FF,
		BRAM: per.BRAM*float64(n) + base.BRAM,
	}
}

// EstimateStreamer produces the Table 1 resource bill for one Streamer
// configuration.
func EstimateStreamer(cfg streamer.Config) Resources {
	var r Resources
	r.Add(costCoreFSM)
	r.Add(costAXISx4)
	r.Add(scaled(costSQPerEntry, cfg.QueueDepth, costSQBase))
	r.Add(scaled(costCQPerEntry, cfg.QueueDepth, costCQBase))
	switch cfg.Variant {
	case streamer.URAM:
		r.Add(costPRPShadow)
		r.Add(costURAMCtrl)
		r.URAMBlocks += int((cfg.ReadBufBytes + URAMBlockBytes - 1) / URAMBlockBytes)
	case streamer.OnboardDRAM:
		r.Add(scaled(costPRPRegfilePerEntry, cfg.QueueDepth, costPRPRegfileBase))
		r.Add(costDRAMAXI)
		r.Add(costDRAMBurst)
		r.DRAMBytes += cfg.ReadBufBytes + cfg.WriteBufBytes
	case streamer.HostDRAM:
		r.Add(scaled(costPRPRegfilePerEntry, cfg.QueueDepth, costPRPRegfileBase))
		r.Add(costChunkStitch)
		r.Add(costPCIeAXI)
		r.Add(costHostBurst)
		r.HostDRAMBytes += cfg.ReadBufBytes + cfg.WriteBufBytes
	}
	return r
}
