package snacc

import (
	"strings"
	"testing"

	"snacc/internal/bench"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// One benchmark per table/figure of the paper's evaluation, plus the §7
// ablations. Each iteration rebuilds the simulated system and replays the
// paper's workload; the custom metrics carry the reproduced numbers
// (GB/s, µs, LUTs) so `go test -bench` output reads like the paper's
// figures. Absolute wall-clock ns/op measures the simulator, not the
// hardware — see EXPERIMENTS.md.

func metricName(label, unit string) string {
	label = strings.ReplaceAll(label, " ", "_")
	return label + "_" + unit
}

// BenchmarkFigure4aSequential regenerates Figure 4a (sequential NVMe
// bandwidth, all three Streamer variants + SPDK).
func BenchmarkFigure4aSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig4a(192 * sim.MiB)
		for _, r := range rows {
			b.ReportMetric(r.SeqReadGB, metricName(r.Label, "seqR_GBps"))
			b.ReportMetric(r.SeqWriteGB, metricName(r.Label, "seqW_GBps"))
		}
	}
}

// BenchmarkFigure4bRandom regenerates Figure 4b (random 4 KiB bandwidth).
func BenchmarkFigure4bRandom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig4b(32 * sim.MiB)
		for _, r := range rows {
			b.ReportMetric(r.RandReadGB, metricName(r.Label, "randR_GBps"))
			b.ReportMetric(r.RandWriteGB, metricName(r.Label, "randW_GBps"))
		}
	}
}

// BenchmarkFigure4cLatency regenerates Figure 4c (4 KiB access latency).
func BenchmarkFigure4cLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig4c(100)
		for _, r := range rows {
			b.ReportMetric(r.ReadLatency.Micros(), metricName(r.Label, "read_us"))
			b.ReportMetric(r.WriteLatency.Micros(), metricName(r.Label, "write_us"))
		}
	}
}

// BenchmarkTable1Resources regenerates Table 1 (FPGA resources).
func BenchmarkTable1Resources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Table1()
		for _, r := range rows {
			b.ReportMetric(float64(r.Resources.LUT), metricName(r.Label, "LUT"))
			b.ReportMetric(float64(r.Resources.FF), metricName(r.Label, "FF"))
		}
	}
}

// BenchmarkFigure6CaseStudy regenerates Figure 6 (case-study bandwidth,
// all five implementations); Figure 7's traffic accounting rides along.
func BenchmarkFigure6CaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig6(96)
		for _, r := range rows {
			b.ReportMetric(r.GBps(), metricName(r.Variant, "GBps"))
			b.ReportMetric(r.FPS(), metricName(r.Variant, "fps"))
		}
	}
}

// BenchmarkFigure7PCIeTraffic regenerates Figure 7 (PCIe transfer volume
// per configuration), reported as multiples of the persisted payload.
func BenchmarkFigure7PCIeTraffic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig7(64)
		for _, r := range rows {
			b.ReportMetric(float64(r.PCIeTotal)/float64(r.Bytes), metricName(r.Variant, "pcie_x_payload"))
		}
	}
}

// BenchmarkAblationQueueDepth sweeps the random-read queue depth (A1).
func BenchmarkAblationQueueDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.AblationQD([]int{64, 256}, 16*sim.MiB)
		for _, r := range rows {
			b.ReportMetric(r.SPDKGB, metricName("SPDK_QD", "GBps"))
			b.ReportMetric(r.SNAccGB, metricName("SNAcc_QD", "GBps"))
		}
	}
}

// BenchmarkAblationOutOfOrder compares retirement policies (A2).
func BenchmarkAblationOutOfOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.AblationOOO(16 * sim.MiB)
		b.ReportMetric(rows[0].RandReadGB, "inorder_randR_GBps")
		b.ReportMetric(rows[1].RandReadGB, "ooo_randR_GBps")
	}
}

// BenchmarkAblationMultiSSD scales Streamer+SSD pairs (A3).
func BenchmarkAblationMultiSSD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.AblationMultiSSD([]int{1, 4}, 64*sim.MiB)
		b.ReportMetric(rows[0].SeqWriteGB, "ssd1_seqW_GBps")
		b.ReportMetric(rows[1].SeqWriteGB, "ssd4_seqW_GBps")
	}
}

// BenchmarkAblationGen5 projects a PCIe 5.0 SSD (A4).
func BenchmarkAblationGen5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.AblationGen5(128 * sim.MiB)
		b.ReportMetric(rows[1].SeqReadGB, "gen5_seqR_GBps")
		b.ReportMetric(rows[1].SeqWriteGB, "gen5_seqW_GBps")
	}
}

// BenchmarkAblationDRAMController quantifies the turnaround penalty (A5).
func BenchmarkAblationDRAMController(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.AblationDRAM(128 * sim.MiB)
		b.ReportMetric(rows[0].SeqWriteGB, "single_ctrl_seqW_GBps")
		b.ReportMetric(rows[1].SeqWriteGB, "dual_ctrl_seqW_GBps")
	}
}

// BenchmarkStreamerSeqWrite micro-benchmarks the core write path per
// variant (simulator throughput, plus the reproduced GB/s metric).
func BenchmarkStreamerSeqWrite(b *testing.B) {
	for _, v := range []Variant{URAM, OnboardDRAM, HostDRAM} {
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f := false
				sys := MustNewSystem(Options{Variant: v, Functional: &f})
				var gbps float64
				sys.Execute(func(h *Handle) {
					start := h.Now()
					check(b, h.WriteTimed(0, 128*sim.MiB))
					gbps = float64(128*sim.MiB) / float64(h.Now()-start)
				})
				b.ReportMetric(gbps, "GBps")
			}
		})
	}
}

// BenchmarkSimulatorEventRate measures raw simulator speed: simulated
// bytes moved per wall second on the heaviest path (SSD write fetches).
func BenchmarkSimulatorEventRate(b *testing.B) {
	f := false
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := MustNewSystem(Options{Variant: HostDRAM, Functional: &f})
		sys.Execute(func(h *Handle) { check(b, h.WriteTimed(0, 64*sim.MiB)) })
	}
	b.SetBytes(64 * sim.MiB)
}

var _ = streamer.URAM // keep the import for the Variant aliases

// BenchmarkAblationHBM stages the on-card buffers in HBM (A6).
func BenchmarkAblationHBM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.AblationHBM(128 * sim.MiB)
		b.ReportMetric(rows[0].SeqWriteGB, "ddr4_seqW_GBps")
		b.ReportMetric(rows[1].SeqWriteGB, "hbm_seqW_GBps")
	}
}

// BenchmarkAblationStripedCaseStudy runs the §7 multi-SSD case study (A7):
// three striped SSDs saturate the 100 G link.
func BenchmarkAblationStripedCaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.Fig6Striped([]int{1, 3}, 64)
		b.ReportMetric(rows[0].GBps(), "striped1_GBps")
		b.ReportMetric(rows[1].GBps(), "striped3_GBps")
	}
}

// BenchmarkAblationMTU sweeps the Ethernet frame payload for the
// network-bound striped pipeline (A8).
func BenchmarkAblationMTU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.AblationMTU([]int64{1500, 9000}, 64)
		b.ReportMetric(rows[0].CaseGB, "mtu1500_GBps")
		b.ReportMetric(rows[1].CaseGB, "mtu9000_GBps")
	}
}

// BenchmarkAblationQueuePairs scales Streamers over queue pairs on one SSD
// (A9).
func BenchmarkAblationQueuePairs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := bench.AblationQP([]int{1, 4}, 16*sim.MiB)
		b.ReportMetric(rows[0].RandReadGB, "qp1_randR_GBps")
		b.ReportMetric(rows[1].RandReadGB, "qp4_randR_GBps")
	}
}
