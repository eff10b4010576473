package snacc

import (
	"snacc/internal/bench"
	"snacc/internal/casestudy"
	"snacc/internal/sim"
)

// Experiment result types, re-exported from the bench harness so callers
// outside internal/ can consume them.
type (
	// Fig4aRow is one bar group of Figure 4a (sequential bandwidth).
	Fig4aRow = bench.Fig4aRow
	// Fig4bRow is one bar group of Figure 4b (random 4 KiB bandwidth).
	Fig4bRow = bench.Fig4bRow
	// Fig4cRow is one bar group of Figure 4c (4 KiB latency).
	Fig4cRow = bench.Fig4cRow
	// Table1Row is one column of Table 1 (FPGA resources).
	Table1Row = bench.Table1Row
	// CaseStudyResult is one Figure 6/7 configuration outcome.
	CaseStudyResult = casestudy.Result
	// RenderedTable is a formatted text table.
	RenderedTable = bench.Table
)

// SetParallelism selects how many worker goroutines the experiment runners
// shard independent simulation rigs across. n <= 0 selects all CPUs; the
// default is 1 (serial). Every rig owns a private simulation kernel with
// fixed seeds and rows are collected by index, so results are bit-identical
// at any setting. Set it once before running experiments, not concurrently
// with them.
func SetParallelism(n int) { bench.SetParallelism(n) }

// Parallelism reports the configured experiment worker count.
func Parallelism() int { return bench.Parallelism() }

// Figure4a regenerates the paper's Figure 4a (sequential NVMe bandwidth
// for the three Streamer variants and SPDK). totalBytes is the transfer
// size per measurement; 0 selects a fast default that already reaches
// steady state (the paper uses 1 GB).
func Figure4a(totalBytes int64) []Fig4aRow {
	if totalBytes <= 0 {
		totalBytes = 256 * sim.MiB
	}
	return bench.Fig4a(totalBytes)
}

// Figure4b regenerates Figure 4b (random 4 KiB bandwidth at QD 64).
func Figure4b(totalBytes int64) []Fig4bRow {
	if totalBytes <= 0 {
		totalBytes = 64 * sim.MiB
	}
	return bench.Fig4b(totalBytes)
}

// Figure4c regenerates Figure 4c (4 KiB access latency, QD 1).
func Figure4c(samples int) []Fig4cRow {
	if samples <= 0 {
		samples = 200
	}
	return bench.Fig4c(samples)
}

// TableOne regenerates Table 1 (FPGA resource utilization).
func TableOne() []Table1Row { return bench.Table1() }

// Figure6 regenerates Figure 6 (case-study bandwidth, all five
// implementations). images 0 selects a fast default; the paper streams
// 16384 frames.
func Figure6(images int) []CaseStudyResult { return bench.Fig6(images) }

// Figure7 regenerates Figure 7 (case-study PCIe traffic). The traffic
// accounting is collected on the same runs as Figure 6.
func Figure7(images int) []CaseStudyResult { return bench.Fig7(images) }

// CaseStudy runs one SNAcc case-study configuration with a custom image
// count.
func CaseStudy(v Variant, images int) CaseStudyResult {
	cfg := casestudy.DefaultConfig()
	if images > 0 {
		cfg.Images = images
		cfg.Source.Count = images
	}
	return casestudy.RunSNAcc(v, cfg)
}

// Rendered table helpers, for printing paper-style output.

// RenderFigure4a formats Figure 4a rows as a text table.
func RenderFigure4a(rows []Fig4aRow) RenderedTable { return bench.RenderFig4a(rows) }

// RenderFigure4b formats Figure 4b rows.
func RenderFigure4b(rows []Fig4bRow) RenderedTable { return bench.RenderFig4b(rows) }

// RenderFigure4c formats Figure 4c rows.
func RenderFigure4c(rows []Fig4cRow) RenderedTable { return bench.RenderFig4c(rows) }

// RenderTableOne formats Table 1 rows.
func RenderTableOne(rows []Table1Row) RenderedTable { return bench.RenderTable1(rows) }

// RenderFigure6 formats Figure 6 results.
func RenderFigure6(rows []CaseStudyResult) RenderedTable { return bench.RenderFig6(rows) }

// RenderFigure7 formats Figure 7 results.
func RenderFigure7(rows []CaseStudyResult) RenderedTable { return bench.RenderFig7(rows) }

// Ablation result types.
type (
	// AblationQDRow is one queue-depth sweep point (A1).
	AblationQDRow = bench.AblationQDRow
	// AblationOOORow compares retirement policies (A2).
	AblationOOORow = bench.AblationOOORow
	// AblationMultiSSDRow is one multi-SSD scaling point (A3).
	AblationMultiSSDRow = bench.AblationMultiSSDRow
	// AblationGen5Row is the PCIe 5.0 projection (A4).
	AblationGen5Row = bench.AblationGen5Row
	// AblationDRAMRow is the DRAM-controller comparison (A5).
	AblationDRAMRow = bench.AblationDRAMRow
)

// AblationQueueDepth sweeps random-read bandwidth over queue depths (A1).
func AblationQueueDepth(depths []int, totalBytes int64) []AblationQDRow {
	if totalBytes <= 0 {
		totalBytes = 24 * sim.MiB
	}
	return bench.AblationQD(depths, totalBytes)
}

// AblationOutOfOrder compares in-order vs out-of-order retirement (A2).
func AblationOutOfOrder(totalBytes int64) []AblationOOORow {
	if totalBytes <= 0 {
		totalBytes = 24 * sim.MiB
	}
	return bench.AblationOOO(totalBytes)
}

// AblationMultiSSD scales Streamer+SSD pairs on one card (A3).
func AblationMultiSSD(counts []int, perSSDBytes int64) []AblationMultiSSDRow {
	if perSSDBytes <= 0 {
		perSSDBytes = 96 * sim.MiB
	}
	return bench.AblationMultiSSD(counts, perSSDBytes)
}

// AblationGen5 projects a PCIe 5.0 SSD (A4).
func AblationGen5(totalBytes int64) []AblationGen5Row {
	if totalBytes <= 0 {
		totalBytes = 192 * sim.MiB
	}
	return bench.AblationGen5(totalBytes)
}

// AblationDRAMController quantifies on-board DRAM contention (A5).
func AblationDRAMController(totalBytes int64) []AblationDRAMRow {
	if totalBytes <= 0 {
		totalBytes = 192 * sim.MiB
	}
	return bench.AblationDRAM(totalBytes)
}

// RenderAblationQueueDepth formats A1 rows.
func RenderAblationQueueDepth(rows []AblationQDRow) RenderedTable {
	return bench.RenderAblationQD(rows)
}

// RenderAblationOutOfOrder formats A2 rows.
func RenderAblationOutOfOrder(rows []AblationOOORow) RenderedTable {
	return bench.RenderAblationOOO(rows)
}

// RenderAblationMultiSSD formats A3 rows.
func RenderAblationMultiSSD(rows []AblationMultiSSDRow) RenderedTable {
	return bench.RenderAblationMultiSSD(rows)
}

// RenderAblationGen5 formats A4 rows.
func RenderAblationGen5(rows []AblationGen5Row) RenderedTable { return bench.RenderAblationGen5(rows) }

// RenderAblationDRAMController formats A5 rows.
func RenderAblationDRAMController(rows []AblationDRAMRow) RenderedTable {
	return bench.RenderAblationDRAM(rows)
}

// AblationHBMRow compares DDR4 vs HBM staging (A6).
type AblationHBMRow = bench.AblationHBMRow

// AblationHBM stages the on-card buffers in HBM (A6, §7).
func AblationHBM(totalBytes int64) []AblationHBMRow {
	if totalBytes <= 0 {
		totalBytes = 192 * sim.MiB
	}
	return bench.AblationHBM(totalBytes)
}

// RenderAblationHBM formats A6 rows.
func RenderAblationHBM(rows []AblationHBMRow) RenderedTable { return bench.RenderAblationHBM(rows) }

// CaseStudyStriped runs the case study persisting through n striped
// Streamer+SSD pairs (ablation A7, the §7 multi-SSD extension).
func CaseStudyStriped(counts []int, images int) []CaseStudyResult {
	return bench.Fig6Striped(counts, images)
}

// RenderCaseStudyStriped formats A7 rows.
func RenderCaseStudyStriped(rows []CaseStudyResult) RenderedTable {
	return bench.RenderFig6Striped(rows)
}

// AblationMTURow is one Ethernet frame-size sensitivity point (A8).
type AblationMTURow = bench.AblationMTURow

// AblationMTU sweeps the Ethernet MTU for the network-bound 3-SSD striped
// case study (A8): the pipeline tracks the link's MTU/(MTU+38) payload
// ceiling.
func AblationMTU(mtus []int64, images int) []AblationMTURow {
	if len(mtus) == 0 {
		mtus = []int64{1500, 4096, 9000}
	}
	return bench.AblationMTU(mtus, images)
}

// RenderAblationMTU formats A8 rows.
func RenderAblationMTU(rows []AblationMTURow) RenderedTable { return bench.RenderAblationMTU(rows) }

// AblationQPRow is one queue-pair scaling point (A9).
type AblationQPRow = bench.AblationQPRow

// AblationQueuePairs attaches n Streamers to one SSD over n queue pairs
// (A9, §7): sequential writes hold the single-SSD ceiling while random
// reads scale with the per-queue in-order FSMs.
func AblationQueuePairs(counts []int, totalBytes int64) []AblationQPRow {
	if totalBytes <= 0 {
		totalBytes = 32 * sim.MiB
	}
	if len(counts) == 0 {
		counts = []int{1, 2, 4}
	}
	return bench.AblationQP(counts, totalBytes)
}

// RenderAblationQueuePairs formats A9 rows.
func RenderAblationQueuePairs(rows []AblationQPRow) RenderedTable {
	return bench.RenderAblationQP(rows)
}

// StripedDegradedRow summarizes a striped set losing one member mid-stream.
type StripedDegradedRow = bench.StripedDegradedRow

// StripedDegraded demonstrates degraded multi-SSD operation: a striped set
// whose member 1 is surprise-removed mid-stream keeps streaming on the
// survivors, failing only the dead member's stripes with attributed
// errors.
func StripedDegraded(members int, totalBytes int64) StripedDegradedRow {
	if members <= 0 {
		members = 3
	}
	if totalBytes <= 0 {
		totalBytes = 48 * sim.MiB
	}
	return bench.StripedDegraded(members, totalBytes)
}

// RenderStripedDegraded formats the degraded-operation demo.
func RenderStripedDegraded(r StripedDegradedRow) RenderedTable {
	return bench.RenderStripedDegraded(r)
}
