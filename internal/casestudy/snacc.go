package casestudy

import (
	"snacc/internal/nvme"
	"snacc/internal/pcie"
	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
)

const caseSSDBAR = 0x10_0000_0000

// RunSNAcc executes the case study with one of the three SNAcc Streamer
// variants: the database controller PE forwards the original image stream
// plus the classification record directly into the NVMe Streamer — after
// initialization "the entire application operates autonomously on the FPGA
// without any host interaction" (§6).
func RunSNAcc(v streamer.Variant, cfg Config) Result {
	res, _ := runSNAcc(v, cfg, nil)
	return res
}

func runSNAcc(v streamer.Variant, cfg Config, devHook func(*nvme.Device)) (Result, *nvme.Device) {
	// With KernelWorkers > 1 the rig splits at the Ethernet wire: the
	// transmitter FPGA gets its own shard domain, everything PCIe-coupled
	// (platform, streamer, SSD, receive PEs) stays together, and the two
	// advance concurrently under conservative sync with the wire latency as
	// lookahead. With 0 or 1 everything runs on one serial kernel.
	k := sim.NewKernel()
	var (
		shard *sim.Shard
		txd   *sim.Domain
		eng   sim.Engine = k
	)
	if cfg.KernelWorkers > 1 {
		shard = sim.NewShard(cfg.KernelWorkers)
		eng = shard
		txd = shard.AddDomain("txfpga")
		k = shard.AddDomain("fpga").Kernel()
	}
	defer eng.Close()
	node := tapasco.NewNode(k, tapasco.DefaultU280())
	devCfg := nvme.DefaultConfig("ssd0", caseSSDBAR)
	devCfg.Functional = cfg.Functional
	ssd := node.AddSSD(devCfg)
	dev := ssd.Dev
	if devHook != nil {
		devHook(dev)
	}
	stCfg := streamer.DefaultConfig("snacc0", 0, v)
	stCfg.Functional = cfg.Functional
	st := node.AddStreamer(ssd, stCfg)

	var fe *frontEnd
	if shard != nil {
		ecfg := ethernetConfig(cfg)
		look := ecfg.EdgeLookahead()
		fpga := shard.Domains()[1]
		toRx := shard.MustConnect(txd, fpga, look)
		toTx := shard.MustConnect(fpga, txd, look)
		fe = newFrontEndCross(txd.Kernel(), k, toRx, toTx, cfg)
	} else {
		fe = newFrontEnd(k, cfg)
	}
	perImage := cfg.imageWriteBytes()
	var start, end sim.Time
	lat := &sim.Histogram{}
	sentAt := make([]sim.Time, 0, cfg.Images)

	k.Spawn("main", func(p *sim.Proc) {
		if err := node.Init(p); err != nil {
			panic(err)
		}
		c := streamer.NewClient(st)
		start = p.Now()

		// Response-token consumer so writes pipeline. Tokens arrive in
		// image order (in-order retirement), so the i-th token pairs with
		// the i-th transmit timestamp for end-to-end latency. The
		// timestamps ride each dbItem (recorded below as the writes are
		// issued), never a transmitter-owned slice: the i-th write is
		// issued before the i-th token can arrive, so the read is safe, and
		// the transmitter may live in another shard domain.
		doneC := sim.NewChan[struct{}](k, 1)
		k.Spawn("dbtokens", func(tp *sim.Proc) {
			for i := 0; i < cfg.Images; i++ {
				c.WaitWrite(tp)
				if i < len(sentAt) {
					lat.Add(tp.Now() - sentAt[i])
				}
			}
			end = tp.Now()
			doneC.TryPut(struct{}{})
		})

		// Database controller PE: one write per image at a sequential
		// cursor — original frame (padded) followed by the record block.
		var cursor uint64
		for i := 0; i < cfg.Images; i++ {
			it := fe.out.Get(p)
			sentAt = append(sentAt, it.sentAt)
			var payload []byte
			if cfg.Functional {
				payload = make([]byte, perImage)
				copy(payload, it.data)
				copy(payload[perImage-cfg.RecordBytes:], it.record)
			}
			c.WriteAsync(p, cursor, perImage, payload)
			cursor += uint64(perImage)
		}
		doneC.Get(p)
	})
	eng.Run(0)

	res := Result{
		Variant:        variantName(v),
		Images:         cfg.Images,
		Bytes:          perImage * int64(cfg.Images),
		Elapsed:        end - start,
		PCIe:           map[string]int64{},
		ImageLatency:   lat,
		EthernetPauses: fe.tx.PausesHonored(),
		FramesDropped:  fe.rx.FramesDropped(),
		Errors:         dev.Errors() + st.CommandErrors(),
	}
	collectPCIe(&res, map[string]*pcie.Port{
		"card": node.Platform.Card,
		"ssd":  dev.Port(),
		"host": node.Platform.Host.Port,
	})
	return res, dev
}

// collectPCIe fills the Figure 7 accounting: payload bytes delivered into
// each port; the sum counts every transfer once at its destination.
func collectPCIe(res *Result, ports map[string]*pcie.Port) {
	for name, pt := range ports {
		res.PCIe[name] = pt.PayloadRx()
		res.PCIeTotal += pt.PayloadRx()
	}
}

// runSNAccWithFaults is a test hook: every Nth NVMe write fails with an
// internal error, exercising error propagation through the Streamer.
func runSNAccWithFaults(cfg Config, v streamer.Variant, everyN int64) (Result, *nvme.Device) {
	res, dev := runSNAcc(v, cfg, func(d *nvme.Device) {
		n := int64(0)
		d.SetFaultInjector(func(cmd nvme.Command) uint16 {
			if cmd.Opcode != nvme.OpWrite {
				return nvme.StatusSuccess
			}
			n++
			if n%everyN == 0 {
				return nvme.StatusInternalError
			}
			return nvme.StatusSuccess
		})
	})
	return res, dev
}
