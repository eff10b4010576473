package casestudy

import (
	"snacc/internal/nvme"
	"snacc/internal/pcie"
	"snacc/internal/sim"
	"snacc/internal/spdk"
)

const gpuBAR = 0x40_0000_0000

// RunGPU executes the §6.1 GPU reference: the FPGA serves only as the NIC,
// raw images land in host memory, CPU threads downscale and shuttle batches
// to an A100 for classification (PyTorch in the paper, with the transfer
// plumbing in C++), and SPDK persists originals plus classifications.
// "This solution incurs more PCIe traffic since the downscaled images must
// be transferred to the GPU, and the classifications must be retrieved
// from it" — with only double buffering, the host-side classify leg
// serializes against the SSD write for the same buffer, which is what
// keeps this variant below the SPDK reference in Figure 6.
func RunGPU(cfg Config) Result {
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

	// NIC (the FPGA, used only for its 100 G interface here).
	nic := f.AttachPort("nic", pcie.LinkConfig{
		Gen: pcie.Gen3, Lanes: 16, MaxReadRequest: 4096, ReadCredits: 8,
	}, nil)
	f.IOMMU().Grant("nic", hostCfg.MemBase, hostCfg.MemSize)

	// A100: Gen4 x16 with fast device memory.
	gpuMem := pcie.NewMemCompleter(k, 600e9, 500*sim.Nanosecond)
	gpu := f.AttachPort("gpu", pcie.LinkConfig{Gen: pcie.Gen4, Lanes: 16}, gpuMem)
	f.MapRange(gpu, gpuBAR, 32*sim.GiB)
	f.IOMMU().Grant("gpu", hostCfg.MemBase, hostCfg.MemSize)

	fe := newFrontEndNICOnly(k, cfg)
	perImage := cfg.imageWriteBytes()
	batchBytes := perImage * int64(cfg.BatchSize)

	bufs := []uint64{
		host.Alloc(batchBytes, nvme.PageSize),
		host.Alloc(batchBytes, nvme.PageSize),
	}
	scaledBuf := host.Alloc(cfg.ScaledBytes*int64(cfg.BatchSize), nvme.PageSize)
	bufFree := sim.NewChan[int](k, 2)
	bufReady := sim.NewChan[batchDesc](k, 2)
	bufFree.TryPut(0)
	bufFree.TryPut(1)

	var start, end sim.Time
	var cpuBusy sim.Time

	// NIC DMA: raw frames into the current batch buffer.
	k.Spawn("nicdma", func(p *sim.Proc) {
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
				}
				nic.WriteB(p, bufs[idx]+uint64(int64(i)*perImage), perImage, payload)
				count++
			}
			bufReady.Put(p, batchDesc{idx: idx, images: n})
		}
	})

	// Host thread: per batch — CPU downscale, H2D, kernel, D2H, SPDK write.
	k.Spawn("host", func(p *sim.Proc) {
		drvCfg := spdk.DefaultDriverConfig()
		drvCfg.Functional = cfg.Functional
		d, err := spdk.Attach(p, host, caseSSDBAR, drvCfg)
		if err != nil {
			panic(err)
		}
		cpu := d.CPU()
		var cursor uint64
		written := 0
		for written < cfg.Images {
			b := bufReady.Get(p)
			if debugBatch != nil {
				debugBatch(p.Now(), 0)
			}
			if written == 0 {
				// Steady-state measurement starts once the pipeline has
				// filled; the paper's 16384-image stream amortizes this
				// ramp to nothing.
				start = p.Now()
			}
			// CPU downscale of every image in the batch.
			occupyServer(p, cpu, sim.Time(b.images)*cfg.GPUScaleCPUPerImage)
			// Scaled batch to the GPU, classifications back.
			host.Port.WriteB(p, gpuBAR, cfg.ScaledBytes*int64(b.images), nil)
			p.Sleep(cfg.GPUKernelPerBatch)
			host.Port.ReadB(p, gpuBAR, cfg.RecordBytes*int64(b.images), nil)
			// Stamp records into the batch buffer (host memory, no bus
			// cost beyond what the record DMA above already paid).
			if cfg.Functional {
				for i := 0; i < b.images; i++ {
					rec := buildRecord(imagestreamAt(cfg, written+i), nil, cfg.RecordBytes)
					host.Mem.Store().WriteBytes(bufs[b.idx]-hostCfg.MemBase+uint64(int64(i+1)*perImage)-uint64(cfg.RecordBytes), rec)
				}
			}
			_ = scaledBuf
			// Persist originals + classifications.
			n := int64(b.images) * perImage
			occupyServer(p, cpu, sim.Time(b.images)*2*sim.Microsecond)
			if err := d.Write(p, cursor/512, uint32(n/512), bufs[b.idx], nil); err != nil {
				panic(err)
			}
			cursor += uint64(n)
			written += b.images
			bufFree.Put(p, b.idx)
		}
		end = p.Now()
		cpuBusy = cpu.BusyTime()
	})
	k.Run(0)

	res := Result{
		Variant:        "GPU",
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
		"card": nic,
		"ssd":  dev.Port(),
		"host": host.Port,
		"gpu":  gpu,
	})
	return res
}
