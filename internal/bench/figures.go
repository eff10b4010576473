package bench

import (
	"snacc/internal/casestudy"
	"snacc/internal/fpga"
	"snacc/internal/nvme"
	"snacc/internal/obs"
	"snacc/internal/sim"
	"snacc/internal/spdk"
	"snacc/internal/streamer"
)

// Fig4aRow is one bar group of Figure 4a (sequential bandwidth, GB/s).
type Fig4aRow struct {
	Label      string
	SeqReadGB  float64
	SeqWriteGB float64
	// WriteHi/WriteLo expose the alternating write band the paper plots
	// as stacked bar tops (§5.2).
	WriteHiGB, WriteLoGB float64
}

// fig4aWarmup fills the SSD's write buffer before measuring, so the first
// transfer is not inflated by the initially empty staging buffer.
const fig4aWarmup = 64 * sim.MiB

// Fig4a measures sequential read/write bandwidth of the three Streamer
// variants and the SPDK reference. totalBytes per transfer (the paper uses
// 1 GB). The SSD's banding epoch is aligned to totalBytes so consecutive
// transfers land in alternating epochs, exposing the paper's bimodal write
// bandwidth at any scale.
func Fig4a(totalBytes int64) []Fig4aRow {
	epoch := func(c *nvme.Config) { c.NAND.EpochBytes = totalBytes }
	variants := Variants()
	return mapRows(len(variants)+1, func(i int) Fig4aRow {
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
}

func fig4aRow(label string, rd float64, writes []float64) Fig4aRow {
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
	return Fig4aRow{
		Label:      label,
		SeqReadGB:  rd,
		SeqWriteGB: sum / float64(len(writes)),
		WriteHiGB:  hi,
		WriteLoGB:  lo,
	}
}

// Fig4bRow is one bar group of Figure 4b (random 4 KiB bandwidth, GB/s).
type Fig4bRow struct {
	Label       string
	RandReadGB  float64
	RandWriteGB float64
}

// Fig4b measures random 4 KiB read/write bandwidth at queue depth 64.
func Fig4b(totalBytes int64) []Fig4bRow {
	const span = 64 * sim.GiB
	variants := Variants()
	return mapRows(len(variants)+1, func(i int) Fig4bRow {
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
			return Fig4bRow{Label: "SPDK", RandReadGB: rr, RandWriteGB: rw}
		}
		rig := buildSNAcc(variants[i], nil, nil)
		defer rig.k.Close()
		var rr, rw float64
		rig.measure(func(p *sim.Proc) {
			rr = streamer.RandRead(p, rig.c, span, totalBytes, 4096, 41).GBps()
			rw = streamer.RandWrite(p, rig.c, span, totalBytes, 4096, 42).GBps()
		})
		return Fig4bRow{Label: variants[i].String(), RandReadGB: rr, RandWriteGB: rw}
	})
}

// Fig4cRow is one bar group of Figure 4c (4 KiB access latency). The paper
// plots means; the P99 columns expose the tail the in-order design must
// absorb.
type Fig4cRow struct {
	Label        string
	ReadLatency  sim.Time
	ReadP99      sim.Time
	WriteLatency sim.Time
	WriteP99     sim.Time
}

// Fig4c measures queue-depth-1 random 4 KiB latency.
func Fig4c(samples int) []Fig4cRow {
	const span = 64 * sim.GiB
	variants := Variants()
	return mapRows(len(variants)+1, func(i int) Fig4cRow {
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
		return Fig4cRow{
			Label:       label,
			ReadLatency: obs.Mean(rd), ReadP99: obs.NearestRank(rd, 99),
			WriteLatency: obs.Mean(wr), WriteP99: obs.NearestRank(wr, 99),
		}
	})
}

// Table1Row is one column of the paper's Table 1.
type Table1Row struct {
	Label     string
	Resources fpga.Resources
	Util      fpga.Utilization
}

// Table1 estimates the Streamer variants' FPGA resource utilization.
func Table1() []Table1Row {
	dev := fpga.AlveoU280()
	var rows []Table1Row
	for _, v := range Variants() {
		cfg := streamer.DefaultConfig("t", 0, v)
		r := fpga.EstimateStreamer(cfg)
		rows = append(rows, Table1Row{Label: v.String(), Resources: r, Util: r.Utilization(dev)})
	}
	return rows
}

// Fig6 runs the case study for all five implementations.
func Fig6(images int) []casestudy.Result {
	cfg := casestudy.DefaultConfig()
	if images > 0 {
		cfg.Source.Count = images
	}
	variants := Variants()
	return mapRows(len(variants)+2, func(i int) casestudy.Result {
		switch {
		case i < len(variants):
			return casestudy.RunSNAcc(variants[i], cfg)
		case i == len(variants):
			return casestudy.RunSPDK(cfg)
		default:
			return casestudy.RunGPU(cfg)
		}
	})
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

// SweepRow is one point of the transfer-size convergence sweep.
type SweepRow struct {
	TransferBytes int64
	SeqWriteGB    float64
	SeqReadGB     float64
}

// SweepTransferSize validates the workload-scaling claim in EXPERIMENTS.md:
// bandwidth as a function of transfer volume, demonstrating that the
// reduced default sizes sit in the same steady state as the paper's 1 GB
// transfers.
func SweepTransferSize(v streamer.Variant, sizes []int64) []SweepRow {
	return mapRows(len(sizes), func(i int) SweepRow {
		size := sizes[i]
		rig := buildSNAcc(v, nil, nil)
		defer rig.k.Close()
		var wr, rd float64
		rig.measure(func(p *sim.Proc) {
			wr = streamer.SeqWrite(p, rig.c, 0, size).GBps()
			rd = streamer.SeqRead(p, rig.c, 0, size).GBps()
		})
		return SweepRow{TransferBytes: size, SeqWriteGB: wr, SeqReadGB: rd}
	})
}

// Fig6Striped runs the case study with the §7 multi-SSD extension: the
// paper closes on "our single NVMe cannot keep-up with the 100G network
// rate"; striping the database across SSDs resolves it, with three drives
// saturating the link itself.
func Fig6Striped(counts []int, images int) []casestudy.Result {
	cfg := casestudy.DefaultConfig()
	if images > 0 {
		cfg.Source.Count = images
	}
	return mapRows(len(counts), func(i int) casestudy.Result {
		return casestudy.RunSNAccStriped(counts[i], cfg)
	})
}
