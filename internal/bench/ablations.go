package bench

import (
	"fmt"

	"snacc/internal/casestudy"
	"snacc/internal/ethernet"
	"snacc/internal/memmodel"
	"snacc/internal/nvme"
	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
)

// AblationQD sweeps the queue depth for 4 KiB random reads — §5.2 observes
// that SPDK keeps scaling with queue size while the Streamer's in-order
// retirement stays flat, and §7 proposes increasing the queue as one
// mitigation.
func AblationQD(depths []int, totalBytes int64) Table {
	const span = 64 * sim.GiB
	rows := mapRows(len(depths), func(i int) Row {
		qd := depths[i]
		k, _, drvC := buildSPDK(qd, nil)
		defer k.Close()
		var spdkGB float64
		k.Spawn("bench", func(p *sim.Proc) {
			d := awaitDriver(p, drvC)
			spdkGB = spdkRand(p, d, nvme.OpRead, totalBytes)
		})
		k.Run(0)

		rig := buildSNAcc(streamer.URAM, func(c *streamer.Config) { c.QueueDepth = qd }, nil)
		defer rig.k.Close()
		var snGB float64
		rig.measure(func(p *sim.Proc) {
			snGB = streamer.RandRead(p, rig.c, span, totalBytes, 4096, 13).GBps()
		})
		return Row{Label: fmt.Sprintf("QD %d", qd), Values: []float64{spdkGB, snGB}}
	})
	return Table{
		Title:   "Ablation A1 — random-read bandwidth vs queue depth (GB/s)",
		Columns: cols(gb, "SPDK", "SNAcc URAM"),
		Rows:    rows,
		Notes:   []string{"§5.2: SPDK scales with queue size; in-order SNAcc stays flat"},
	}
}

// AblationOOO measures the §7 out-of-order retirement extension against the
// paper's in-order baseline on the on-board DRAM variant.
func AblationOOO(totalBytes int64) Table {
	const span = 64 * sim.GiB
	rows := mapRows(2, func(i int) Row {
		ooo := i == 1
		label := "in-order (paper)"
		if ooo {
			label = "out-of-order (§7)"
		}
		rig := buildSNAcc(streamer.OnboardDRAM, func(c *streamer.Config) {
			c.OutOfOrder = ooo
			if ooo {
				// The slot pool sizes by MaxCmdBytes; random 4 KiB reads
				// need many small slots.
				c.MaxCmdBytes = 64 * sim.KiB
			}
		}, nil)
		defer rig.k.Close()
		var rr, sr float64
		rig.measure(func(p *sim.Proc) {
			rr = streamer.RandRead(p, rig.c, span, totalBytes, 4096, 13).GBps()
			sr = streamer.SeqRead(p, rig.c, 0, totalBytes).GBps()
		})
		return Row{Label: label, Values: []float64{rr, sr}}
	})
	return Table{
		Title:   "Ablation A2 — in-order vs out-of-order retirement (GB/s)",
		Columns: cols(gb, "rand-r", "seq-r"),
		Rows:    rows,
		Notes:   []string{"§7: out-of-order retirement recovers random-read bandwidth"},
	}
}

// AblationMultiSSD attaches n Streamer+SSD pairs to one card and measures
// aggregate sequential write bandwidth — §7: "Our design can easily be
// extended to access multiple SSDs concurrently ... separate submission and
// completion queues for each SSD".
func AblationMultiSSD(counts []int, perSSDBytes int64) Table {
	rows := mapRows(len(counts), func(ci int) Row {
		n := counts[ci]
		k := sim.NewKernel()
		node := tapasco.NewNode(k, tapasco.DefaultU280())
		var clients []*streamer.Client
		for i := 0; i < n; i++ {
			ssd := node.AddSSD(nvme.DefaultConfig(fmt.Sprintf("ssd%d", i), uint64(ssdBAR)+uint64(i)*0x1000_0000))
			// URAM windows are cheap; one per SSD keeps queues separate.
			st := node.AddStreamer(ssd, streamer.DefaultConfig(fmt.Sprintf("snacc%d", i), 0, streamer.URAM))
			clients = append(clients, streamer.NewClient(st))
		}
		elapsed := timeParallel(node, n, func(p *sim.Proc, i int) {
			streamer.SeqWrite(p, clients[i], 0, perSSDBytes)
		})
		agg := float64(perSSDBytes*int64(n)) / elapsed.Seconds() / 1e9
		return Row{Label: fmt.Sprintf("%d SSD", n), Values: []float64{agg, agg / float64(n)}}
	})
	return Table{
		Title:   "Ablation A3 — multi-SSD sequential write scaling",
		Columns: cols(gb, "aggregate GB/s", "per-SSD GB/s"),
		Rows:    rows,
		Notes:   []string{"§7: separate queues per SSD hide single-SSD latency and fill PCIe"},
	}
}

// timeParallel brings node up (runInMain), then runs work(p, i) for each i
// in [0, n) in concurrent processes "w0".."w<n-1>" and returns the time
// from the end of bring-up to the last finish.
func timeParallel(node *tapasco.Node, n int, work func(p *sim.Proc, i int)) sim.Time {
	var elapsed sim.Time
	runInMain(node, func(p *sim.Proc) {
		k, start := node.Platform.K, p.Now()
		fin := sim.NewChan[struct{}](k, n)
		for i := 0; i < n; i++ {
			k.Spawn(fmt.Sprintf("w%d", i), func(wp *sim.Proc) {
				work(wp, i)
				fin.TryPut(struct{}{})
			})
		}
		for done := 0; done < n; done++ {
			fin.Get(p)
		}
		elapsed = p.Now() - start
	})
	return elapsed
}

// AblationGen5 swaps in a Gen5 x4 SSD profile ("Current NVMe SSDs support
// PCIe Gen5 x4, doubling the bandwidth") and re-measures the URAM variant.
// The Streamer needs no modification, exactly as §7 claims.
func AblationGen5(totalBytes int64) Table {
	gen5 := func(c *nvme.Config) {
		c.Link.Gen = 5
		c.NAND.SeqReadBW = sim.GBps(12.4)
		c.NAND.ProgramBWFast = sim.GBps(11.8)
		c.NAND.ProgramBWSlow = sim.GBps(11.2)
		// Faster links also sharpened P2P handling on newer platforms;
		// give the data-fetch engine a deeper window.
		c.Link.ReadCredits = 8
	}
	muts := []func(*nvme.Config){nil, gen5}
	rows := mapRows(len(muts), func(i int) Row {
		mut := muts[i]
		label := "Gen4 x4 (990 PRO)"
		if mut != nil {
			label = "Gen5 x4 (projected)"
		}
		rig := buildSNAcc(streamer.URAM, nil, mut)
		defer rig.k.Close()
		var rd, wr float64
		rig.measure(func(p *sim.Proc) {
			rd = streamer.SeqRead(p, rig.c, 0, totalBytes).GBps()
			wr = streamer.SeqWrite(p, rig.c, 0, totalBytes).GBps()
		})
		return Row{Label: label, Values: []float64{rd, wr}}
	})
	return Table{
		Title:   "Ablation A4 — PCIe 5.0 SSD projection (URAM variant, GB/s)",
		Columns: cols(gb, "seq-r", "seq-w"),
		Rows:    rows,
		Notes:   []string{"§7: the implementation accommodates Gen5 SSDs without modification"},
	}
}

// AblationDRAM quantifies the on-board DRAM turnaround penalty: it compares the paper's single DRAM controller against the §5.2
// remedy ("utilizing two DRAM controllers or distinct HBM memory banks"),
// modeled as a controller without read/write turnaround and row-miss
// penalties between the competing streams.
func AblationDRAM(totalBytes int64) Table {
	rows := mapRows(2, func(i int) Row {
		dual := i == 1
		label := "single controller (paper)"
		if dual {
			label = "dual controller / HBM (§7)"
		}
		k := sim.NewKernel()
		plCfg := tapasco.DefaultU280()
		if dual {
			plCfg.DRAM.Turnaround = 0
			plCfg.DRAM.RowMissPenalty = 0
		}
		node := tapasco.NewNode(k, plCfg)
		st := node.AddStreamer(node.AddSSD(nvme.DefaultConfig("ssd0", ssdBAR)), streamer.DefaultConfig("snacc0", 0, streamer.OnboardDRAM))
		var wr float64
		runInMain(node, func(p *sim.Proc) {
			wr = streamer.SeqWrite(p, streamer.NewClient(st), 0, totalBytes).GBps()
		})
		return Row{Label: label, Values: []float64{wr}}
	})
	return Table{
		Title:   "Ablation A5 — on-board DRAM controller contention (seq write, GB/s)",
		Columns: cols(gb, "seq-w"),
		Rows:    rows,
		Notes:   []string{"§5.2: read/write turnaround between NVMe fetches and buffer fills costs bandwidth"},
	}
}

// AblationHBM stages the on-card buffers in the U280's HBM stack instead of
// the single DDR4 controller — §7: "we can leverage HBM and distribute data
// buffers across different HBM controllers to maximize parallelism and
// bandwidth".
func AblationHBM(totalBytes int64) Table {
	rows := mapRows(2, func(i int) Row {
		hbm := i == 1
		label := "DDR4, single controller (paper)"
		if hbm {
			label = "HBM2, 32 channels (§7)"
		}
		k := sim.NewKernel()
		node := tapasco.NewNode(k, tapasco.DefaultU280())
		ssd := node.AddSSD(nvme.DefaultConfig("ssd0", ssdBAR))
		cfg := streamer.DefaultConfig("snacc0", 0, streamer.OnboardDRAM)
		var st *streamer.Streamer
		if hbm {
			// HBM's channel parallelism also shortens the drain path.
			cfg.DrainLatency = 1500 * sim.Nanosecond
			st = node.AddStreamerHBM(ssd, cfg, memmodel.NewHBM(k, memmodel.DefaultHBMConfig()))
		} else {
			st = node.AddStreamer(ssd, cfg)
		}
		var wr, rd float64
		runInMain(node, func(p *sim.Proc) {
			c := streamer.NewClient(st)
			wr = streamer.SeqWrite(p, c, 0, totalBytes).GBps()
			rd = streamer.SeqRead(p, c, 0, totalBytes).GBps()
		})
		return Row{Label: label, Values: []float64{wr, rd}}
	})
	return Table{
		Title:   "Ablation A6 — HBM staging for the on-card variant (GB/s)",
		Columns: cols(gb, "seq-w", "seq-r"),
		Rows:    rows,
		Notes:   []string{"§7: HBM channel parallelism removes the DDR4 turnaround interplay"},
	}
}

// AblationMTU sweeps the Ethernet MTU for the 3-SSD striped case study.
// Per-frame overhead (preamble, header, FCS, IFG) is fixed, so smaller MTUs
// lower the 100 G link's payload ceiling, 12.5 GB/s × MTU/(MTU+38) — and
// the 3-SSD pipeline, which A7 shows is network-limited, tracks that
// ceiling.
func AblationMTU(mtus []int64, images int) Table {
	rows := mapRows(len(mtus), func(i int) Row {
		mtu := mtus[i]
		cfg := casestudy.DefaultConfig()
		if images > 0 {
			cfg.Source.Count = images
		}
		cfg.EthernetMTU = mtu
		res := casestudy.RunSNAccStriped(3, cfg)
		ecfg := ethernet.DefaultConfig()
		ceiling := ecfg.BytesPerSec() * float64(mtu) / float64(mtu+ecfg.FrameOverheadBytes) / 1e9
		return Row{Label: fmt.Sprintf("MTU %d", mtu), Values: []float64{ceiling, res.GBps(), res.FPS()}}
	})
	return Table{
		Title:   "Ablation A8 — Ethernet MTU vs the network-bound striped pipeline (3 SSDs)",
		Columns: []Column{{"link ceiling GB/s", gb}, {"measured GB/s", gb}, {"frames/s", count}},
		Rows:    rows,
		Notes: []string{
			"per-frame overhead is fixed, so the payload ceiling — and the network-bound pipeline — tracks MTU/(MTU+38)",
		},
	}
}

// AblationQP attaches n Streamers to ONE controller (queue pairs 1..n) —
// §7's observation that "each additional NVMe Streamer only requires one
// additional queue pair". Contrast with AblationMultiSSD: sequential writes
// stay at the single-SSD NAND ceiling no matter how many queues feed it,
// while 4 KiB random reads scale with the streamer count because each
// streamer's in-order retirement FSM is a per-queue bottleneck, not a
// device limit.
func AblationQP(counts []int, totalBytes int64) Table {
	const span = 64 * sim.GiB
	rows := mapRows(len(counts), func(ci int) Row {
		n := counts[ci]
		row := Row{Label: fmt.Sprintf("%d streamer(s)", n), Values: make([]float64, 2)}
		for c, random := range []bool{false, true} {
			k := sim.NewKernel()
			node := tapasco.NewNode(k, tapasco.DefaultU280())
			ssd := node.AddSSD(nvme.DefaultConfig("ssd0", ssdBAR))
			var clients []*streamer.Client
			for i := 0; i < n; i++ {
				// Streamer i takes queue pair i+1.
				st := node.AddStreamer(ssd, streamer.DefaultConfig(fmt.Sprintf("snacc%d", i), 0, streamer.URAM))
				clients = append(clients, streamer.NewClient(st))
			}
			per := totalBytes / int64(n)
			elapsed := timeParallel(node, n, func(p *sim.Proc, i int) {
				if random {
					streamer.RandRead(p, clients[i], span/int64(n), per, 4096, uint64(31+i))
				} else {
					streamer.SeqWrite(p, clients[i], uint64(i)*uint64(span/int64(n)), per)
				}
			})
			row.Values[c] = float64(totalBytes) / elapsed.Seconds() / 1e9
		}
		return row
	})
	return Table{
		Title:   "Ablation A9 — multiple Streamers sharing one SSD (one queue pair each, §7)",
		Columns: cols(gb, "seq-w GB/s", "rand-r GB/s"),
		Rows:    rows,
		Notes: []string{
			"seq writes stay at the single-SSD NAND ceiling; rand reads scale because the in-order FSM is per-queue, not per-device",
		},
	}
}
