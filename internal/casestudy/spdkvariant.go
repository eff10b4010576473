package casestudy

import (
	"snacc/internal/nvme"
	"snacc/internal/pcie"
	"snacc/internal/sim"
	"snacc/internal/spdk"
)

// RunSPDK executes the §6.1 SPDK reference: the FPGA still receives,
// scales and classifies, but "the host will need to manage saving the
// resulting data" — the card DMAs image+classification batches into host
// memory, and a host thread writes them to the SSD with SPDK, double
// buffered so classification overlaps both transfer legs.
func RunSPDK(cfg Config) Result {
	k := sim.NewKernel()
	defer k.Close()
	f := pcie.NewFabric(k, pcie.DefaultConfig())
	hostCfg := pcie.DefaultHostConfig()
	hostCfg.MemSize = 24 * sim.GiB
	host := pcie.NewHost(f, hostCfg)
	devCfg := nvme.DefaultConfig("ssd0", caseSSDBAR)
	devCfg.Functional = cfg.Functional
	dev := nvme.New(k, f, devCfg)
	f.IOMMU().Grant("ssd0", hostCfg.MemBase, hostCfg.MemSize)

	// The FPGA card acts as the accelerator front end plus a DMA engine
	// toward host memory.
	card := f.AttachPort("card", pcie.LinkConfig{
		Gen: pcie.Gen3, Lanes: 16, MaxReadRequest: 4096, ReadCredits: 8,
	}, nil)
	f.IOMMU().Grant("card", hostCfg.MemBase, hostCfg.MemSize)

	fe := newFrontEnd(k, cfg)
	perImage := cfg.imageWriteBytes()
	batchBytes := perImage * int64(cfg.BatchSize)

	// Double-buffered batch ring in pinned host memory.
	bufs := []uint64{
		host.Alloc(batchBytes, nvme.PageSize),
		host.Alloc(batchBytes, nvme.PageSize),
	}
	bufFree := sim.NewChan[int](k, 2)
	bufReady := sim.NewChan[batchDesc](k, 2)
	bufFree.TryPut(0)
	bufFree.TryPut(1)

	var start, end sim.Time
	var cpuBusy sim.Time

	// FPGA-side DMA: fill the current batch buffer image by image.
	k.Spawn("dma", func(p *sim.Proc) {
		p.SetDaemon(true)
		count := 0
		for count < cfg.Images {
			idx := bufFree.Get(p)
			n := cfg.BatchSize
			if rem := cfg.Images - count; n > rem {
				n = rem
			}
			for i := 0; i < n; i++ {
				it := fe.out.Get(p)
				var payload []byte
				if cfg.Functional {
					payload = make([]byte, perImage)
					copy(payload, it.data)
					copy(payload[perImage-cfg.RecordBytes:], it.record)
				}
				card.WriteB(p, bufs[idx]+uint64(int64(i)*perImage), perImage, payload)
				count++
			}
			bufReady.Put(p, batchDesc{idx: idx, images: n})
		}
	})

	// Host thread: SPDK writes each ready batch, then recycles the buffer.
	k.Spawn("host", func(p *sim.Proc) {
		drvCfg := spdk.DefaultDriverConfig()
		drvCfg.Functional = cfg.Functional
		d, err := spdk.Attach(p, host, caseSSDBAR, drvCfg)
		if err != nil {
			panic(err)
		}
		var cursor uint64
		written := 0
		for written < cfg.Images {
			b := bufReady.Get(p)
			if written == 0 {
				// Steady-state measurement starts once the pipeline has
				// filled; the paper's 16384-image stream amortizes this
				// ramp to nothing.
				start = p.Now()
			}
			tGet := p.Now()
			n := int64(b.images) * perImage
			// One CPU-managed write per batch; SPDK splits into 1 MiB
			// commands internally. The data-path core also pays a per-image
			// management cost (batch bookkeeping, §6.3's "doing nothing but
			// moving data around").
			d.CPU().Occupy(sim.Time(b.images) * 2 * sim.Microsecond)
			if err := d.Write(p, cursor/512, uint32(n/512), bufs[b.idx], nil); err != nil {
				panic(err)
			}
			cursor += uint64(n)
			written += b.images
			if debugBatch != nil {
				debugBatch(tGet, p.Now())
			}
			bufFree.Put(p, b.idx)
		}
		end = p.Now()
		cpuBusy = d.CPU().BusyTime()
	})
	k.Run(0)

	res := Result{
		Variant:        "SPDK",
		Images:         cfg.Images,
		Bytes:          perImage * int64(cfg.Images),
		Elapsed:        end - start,
		PCIe:           map[string]int64{},
		HostCPUBusy:    cpuBusy,
		BusyPolling:    true,
		EthernetPauses: fe.tx.PausesHonored(),
		FramesDropped:  fe.rx.FramesDropped(),
		Errors:         dev.Errors(),
	}
	collectPCIe(&res, map[string]*pcie.Port{
		"card": card,
		"ssd":  dev.Port(),
		"host": host.Port,
	})
	return res
}

type batchDesc struct {
	idx    int
	images int
}

// debugBatch is a test-only probe of the host write leg.
var debugBatch func(start, end sim.Time)
