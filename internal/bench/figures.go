package bench

import (
	"fmt"
	"slices"

	"snacc/internal/casestudy"
	"snacc/internal/fpga"
	"snacc/internal/nvme"
	"snacc/internal/obs"
	"snacc/internal/sim"
	"snacc/internal/spdk"
	"snacc/internal/streamer"
)

// fig4aWarmup fills the SSD's write buffer before measuring, so the first
// transfer is not inflated by the initially empty staging buffer.
const fig4aWarmup = 64 * sim.MiB

// Fig4a measures sequential read/write bandwidth of the three Streamer
// variants and the SPDK reference. totalBytes per transfer (the paper uses
// 1 GB). The SSD's banding epoch is aligned to totalBytes so consecutive
// transfers land in alternating epochs, exposing the paper's bimodal write
// bandwidth at any scale. Each row is one bar group: mean read, mean write,
// and the alternating write band (w-low, w-high) the paper plots as stacked
// bar tops (§5.2).
func Fig4a(totalBytes int64) Table {
	epoch := func(c *nvme.Config) { c.NAND.EpochBytes = totalBytes }
	variants := Variants()
	rows := mapRows(len(variants)+1, func(i int) Row {
		if i == len(variants) {
			k, _, drvC := buildSPDK(64, epoch)
			defer k.Close()
			var rd float64
			var writes []float64
			k.Spawn("bench", func(p *sim.Proc) {
				d := awaitDriver(p, drvC)
				rd = spdkSeq(p, d, nvme.OpRead, totalBytes)
				spdkSeq(p, d, nvme.OpWrite, fig4aWarmup)
				for i := 0; i < 2; i++ {
					writes = append(writes, spdkSeq(p, d, nvme.OpWrite, totalBytes))
				}
			})
			k.Run(0)
			return fig4aRow("SPDK", rd, writes)
		}
		rig := buildSNAcc(variants[i], nil, epoch)
		defer rig.k.Close()
		var rd float64
		var writes []float64
		rig.measure(func(p *sim.Proc) {
			rd = streamer.SeqRead(p, rig.c, 0, totalBytes).GBps()
			streamer.SeqWrite(p, rig.c, 0, fig4aWarmup)
			for i := 0; i < 2; i++ {
				writes = append(writes, streamer.SeqWrite(p, rig.c, 0, totalBytes).GBps())
			}
		})
		return fig4aRow(variants[i].String(), rd, writes)
	})
	return Table{
		Title:   "Figure 4a — sequential NVMe bandwidth (GB/s)",
		Columns: cols(gb, "seq-r", "seq-w", "w-low", "w-high"),
		Rows:    rows,
		Notes: []string{
			"paper: seq-r ≈6.9 all; seq-w SPDK/Host 6.24/5.90 alternating, URAM 5.6/5.32, On-board 4.6–4.8",
		},
	}
}

func fig4aRow(label string, rd float64, writes []float64) Row {
	hi, lo := writes[0], writes[0]
	var sum float64
	for _, w := range writes {
		if w > hi {
			hi = w
		}
		if w < lo {
			lo = w
		}
		sum += w
	}
	return Row{Label: label, Values: []float64{rd, sum / float64(len(writes)), lo, hi}}
}

// Fig4b measures random 4 KiB read/write bandwidth at queue depth 64.
func Fig4b(totalBytes int64) Table {
	const span = 64 * sim.GiB
	variants := Variants()
	rows := mapRows(len(variants)+1, func(i int) Row {
		if i == len(variants) {
			k, _, drvC := buildSPDK(64, nil)
			defer k.Close()
			var rr, rw float64
			k.Spawn("bench", func(p *sim.Proc) {
				d := awaitDriver(p, drvC)
				rr = spdkRand(p, d, nvme.OpRead, totalBytes)
				rw = spdkRand(p, d, nvme.OpWrite, totalBytes)
			})
			k.Run(0)
			return Row{Label: "SPDK", Values: []float64{rr, rw}}
		}
		rig := buildSNAcc(variants[i], nil, nil)
		defer rig.k.Close()
		var rr, rw float64
		rig.measure(func(p *sim.Proc) {
			rr = streamer.RandRead(p, rig.c, span, totalBytes, 4096, 41).GBps()
			rw = streamer.RandWrite(p, rig.c, span, totalBytes, 4096, 42).GBps()
		})
		return Row{Label: variants[i].String(), Values: []float64{rr, rw}}
	})
	return Table{
		Title:   "Figure 4b — random 4 KiB NVMe bandwidth (GB/s)",
		Columns: cols(gb, "rand-r", "rand-w"),
		Rows:    rows,
		Notes: []string{
			"paper: rand-r SNAcc ≈1.6 (in-order retirement), SPDK 4.5; rand-w Host 4.8, SPDK 5.25",
		},
	}
}

// Fig4c measures queue-depth-1 random 4 KiB latency. The paper plots
// means; the p99 columns expose the tail the in-order design must absorb.
func Fig4c(samples int) Table {
	const span = 64 * sim.GiB
	variants := Variants()
	rows := mapRows(len(variants)+1, func(i int) Row {
		var label string
		var rd, wr []sim.Time
		if i == len(variants) {
			label = "SPDK"
			k, _, drvC := buildSPDK(64, nil)
			defer k.Close()
			k.Spawn("bench", func(p *sim.Proc) {
				d := awaitDriver(p, drvC)
				rd = spdk.Latency(p, d, nvme.OpRead, 4096, samples, 31)
				wr = spdk.Latency(p, d, nvme.OpWrite, 4096, samples, 31)
			})
			k.Run(0)
		} else {
			label = variants[i].String()
			rig := buildSNAcc(variants[i], nil, nil)
			defer rig.k.Close()
			rig.measure(func(p *sim.Proc) {
				rd = streamer.LatencyRead(p, rig.c, span, 4096, samples, 5)
				wr = streamer.LatencyWrite(p, rig.c, span, 4096, samples, 6)
			})
		}
		return Row{Label: label, Values: []float64{
			float64(obs.Mean(rd)), float64(obs.NearestRank(rd, 99)),
			float64(obs.Mean(wr)), float64(obs.NearestRank(wr, 99)),
		}}
	})
	return Table{
		Title:   "Figure 4c — 4 KiB access latency",
		Columns: cols(duration, "read", "read-p99", "write", "write-p99"),
		Rows:    rows,
		Notes: []string{
			"paper: read URAM 34us, On-board 41us, Host 43us, SPDK 57us; write all < 9us",
		},
	}
}

// Table1 estimates the Streamer variants' FPGA resource utilization. The
// URAM and DRAM cells are text: a buffer size with its utilization, and
// "*" marking pinned host memory.
func Table1() Table {
	dev := fpga.AlveoU280()
	pct := func(v float64) string { return fmt.Sprintf("%.1f%%", v) }
	t := Table{
		Title: "Table 1 — NVMe Streamer FPGA resource utilization (Alveo U280)",
		Columns: []Column{{"LUT", count}, {"LUT%", pct}, {"FF", count}, {"FF%", pct},
			{"BRAM", tenth}, {"BRAM%", pct}, {"URAM", nil}, {"DRAM", nil}},
		Notes: []string{"*pinned host memory"},
	}
	for _, v := range Variants() {
		r := fpga.EstimateStreamer(streamer.DefaultConfig("t", 0, v))
		u := r.Utilization(dev)
		uram := "-"
		if r.URAMBlocks > 0 {
			uram = fmt.Sprintf("%d MiB (%.1f%%)", int64(r.URAMBlocks)*32*sim.KiB/sim.MiB, u.URAM*100)
		}
		dram := "-"
		if r.DRAMBytes > 0 {
			dram = fmt.Sprintf("%d MiB", r.DRAMBytes/sim.MiB)
		}
		if r.HostDRAMBytes > 0 {
			dram = fmt.Sprintf("%d MiB*", r.HostDRAMBytes/sim.MiB)
		}
		t.Rows = append(t.Rows, Row{
			Label: v.String(),
			Values: []float64{float64(r.LUT), u.LUT * 100, float64(r.FF), u.FF * 100,
				r.BRAM, u.BRAM * 100},
			Text: map[string]string{"URAM": uram, "DRAM": dram},
		})
	}
	return t
}

// Fig6 runs the case study for all five implementations and returns
// Figure 6 (bandwidth) and Figure 7 (PCIe traffic) from the same runs.
func Fig6(images int) (fig6, fig7 Table) {
	cfg := casestudy.DefaultConfig()
	if images > 0 {
		cfg.Source.Count = images
	}
	variants := Variants()
	runs := mapRows(len(variants)+2, func(i int) casestudy.Result {
		switch {
		case i < len(variants):
			return casestudy.RunSNAcc(variants[i], cfg)
		case i == len(variants):
			return casestudy.RunSPDK(cfg)
		default:
			return casestudy.RunGPU(cfg)
		}
	})
	fig6 = Table{
		Title: "Figure 6 — case-study bandwidth",
		Columns: []Column{{"GB/s", gb}, {"frames/s", count},
			{"img-latency", orDash(duration)}, {"CPU", nil}},
		Notes: []string{
			"paper: Host DRAM & SPDK ≈6.1 GB/s (676 fps), GPU 5.76, URAM/On-board at their seq-write levels",
		},
	}
	fig7 = Table{
		Title: "Figure 7 — PCIe data transfers per configuration",
		Columns: slices.Concat([]Column{{"total GB", gb}, {"x payload", ratio}},
			cols(orDash(gb), "card", "host", "ssd", "gpu")),
		Notes: []string{
			"paper: URAM and On-board DRAM fewest transfers; GPU the most",
		},
	}
	for _, r := range runs {
		var lat float64
		if r.ImageLatency != nil && r.ImageLatency.Count() > 0 {
			lat = float64(r.ImageLatency.Mean())
		}
		cpu := "idle after setup"
		if r.BusyPolling {
			cpu = "1 core @ 100% (polling)"
		}
		fig6.Rows = append(fig6.Rows, Row{Label: r.Variant,
			Values: []float64{r.GBps(), r.FPS(), lat},
			Text:   map[string]string{"CPU": cpu},
		})
		gbAt := func(port string) float64 { return float64(r.PCIe[port]) / 1e9 }
		fig7.Rows = append(fig7.Rows, Row{Label: r.Variant, Values: []float64{
			float64(r.PCIeTotal) / 1e9, float64(r.PCIeTotal) / float64(r.Bytes),
			gbAt("card"), gbAt("host"), gbAt("ssd"), gbAt("gpu"),
		}})
	}
	return fig6, fig7
}

// ---- SPDK measurement helpers (thin wrappers over internal/spdk) ----

func spdkSeq(p *sim.Proc, d *spdk.Driver, op uint8, total int64) float64 {
	return spdk.Sequential(p, d, op, total, sim.MiB, 0).GBps()
}

func spdkRand(p *sim.Proc, d *spdk.Driver, op uint8, total int64) float64 {
	return spdk.RandomIO(p, d, op, total, 4096, 97).GBps()
}

// awaitDriver waits (in simulated time) for the attach process to publish
// the driver handle. A raw Go channel receive would block the cooperative
// scheduler.
func awaitDriver(p *sim.Proc, c chan *spdk.Driver) *spdk.Driver {
	for len(c) == 0 {
		p.Sleep(10 * sim.Microsecond)
	}
	return <-c
}

// SweepTransferSize validates the workload-scaling claim in EXPERIMENTS.md:
// bandwidth as a function of transfer volume, demonstrating that the
// reduced default sizes sit in the same steady state as the paper's 1 GB
// transfers.
func SweepTransferSize(v streamer.Variant, sizes []int64) Table {
	rows := mapRows(len(sizes), func(i int) Row {
		size := sizes[i]
		rig := buildSNAcc(v, nil, nil)
		defer rig.k.Close()
		var wr, rd float64
		rig.measure(func(p *sim.Proc) {
			wr = streamer.SeqWrite(p, rig.c, 0, size).GBps()
			rd = streamer.SeqRead(p, rig.c, 0, size).GBps()
		})
		return Row{Label: fmt.Sprintf("%d MiB", size/sim.MiB), Values: []float64{wr, rd}}
	})
	return Table{
		Title:   "Transfer-size convergence — " + v.String(),
		Columns: cols(gb, "seq-w", "seq-r"),
		Rows:    rows,
		Notes:   []string{"steady state: values stop moving well before the paper's 1 GB transfers"},
	}
}

// Fig6Striped runs the case study with the §7 multi-SSD extension: the
// paper closes on "our single NVMe cannot keep-up with the 100G network
// rate"; striping the database across SSDs resolves it, with three drives
// saturating the link itself.
func Fig6Striped(counts []int, images int) Table {
	cfg := casestudy.DefaultConfig()
	if images > 0 {
		cfg.Source.Count = images
	}
	rows := mapRows(len(counts), func(i int) Row {
		r := casestudy.RunSNAccStriped(counts[i], cfg)
		return Row{Label: r.Variant, Values: []float64{r.GBps(), r.FPS(), float64(r.EthernetPauses)}}
	})
	return Table{
		Title:   "Ablation A7 — case study with striped multi-SSD storage (§7)",
		Columns: []Column{{"GB/s", gb}, {"frames/s", count}, {"pauses", count}},
		Rows:    rows,
		Notes: []string{
			"§7 resolves §6.2's gap: with ≥3 SSDs the 100G link (≈12.2 GB/s payload) becomes the bottleneck",
		},
	}
}
