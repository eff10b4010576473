package casestudy

import (
	"snacc/internal/nvme"
	"snacc/internal/pcie"
	"snacc/internal/sim"
	"snacc/internal/spdk"
)

const gpuBAR = 0x40_0000_0000

// hostManagePerImage is the data-path core's per-image management cost in
// the host-managed references (batch bookkeeping, §6.3's "doing nothing
// but moving data around").
const hostManagePerImage = 2 * sim.Microsecond

// RunSPDK executes the §6.1 SPDK reference: the FPGA still receives,
// scales and classifies, but "the host will need to manage saving the
// resulting data" — the card DMAs image+classification batches into host
// memory, and a host thread writes them to the SSD with SPDK, double
// buffered so classification overlaps both transfer legs.
func RunSPDK(cfg Config) Result {
	return runHostBatch(cfg, hostPipeline{name: "SPDK", classify: true, step: spdkStep})
}

// spdkStep only books the batch's management cost on the data-path core:
// the SPDK write that follows is issued at once.
func spdkStep(_ *sim.Proc, r *hostRig, b hostBatch) {
	r.cpu.Occupy(sim.Time(b.images) * hostManagePerImage)
}

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
	return runHostBatch(cfg, hostPipeline{name: "GPU", device: attachA100, step: gpuStep})
}

// attachA100 adds the GPU: Gen4 x16 with fast device memory.
func attachA100(k *sim.Kernel, f *pcie.Fabric) *pcie.Port {
	gpu := f.AttachPort("gpu", pcie.LinkConfig{Gen: pcie.Gen4, Lanes: 16},
		pcie.NewMemCompleter(k, 600e9, 500*sim.Nanosecond))
	f.MapRange(gpu, gpuBAR, 32*sim.GiB)
	return gpu
}

// gpuStep runs the batch through the host and the A100 before it is
// persisted: CPU downscale, H2D, kernel, D2H, then the management cost.
func gpuStep(p *sim.Proc, r *hostRig, b hostBatch) {
	cfg := r.cfg
	occupyServer(p, r.cpu, sim.Time(b.images)*cfg.GPUScaleCPUPerImage)
	r.host.Port.WriteB(p, gpuBAR, cfg.ScaledBytes*int64(b.images), nil)
	p.Sleep(cfg.GPUKernelPerBatch)
	r.host.Port.ReadB(p, gpuBAR, cfg.RecordBytes*int64(b.images), nil)
	// Stamp records into the batch buffer (host memory, no bus cost
	// beyond what the record DMA above already paid).
	if cfg.Functional {
		perImage := cfg.imageWriteBytes()
		for i := 0; i < b.images; i++ {
			rec := buildRecord(b.first+i, nil, cfg.RecordBytes)
			r.host.Mem.Store().WriteBytes(b.addr-r.memBase+uint64(int64(i+1)*perImage)-uint64(cfg.RecordBytes), rec)
		}
	}
	occupyServer(p, r.cpu, sim.Time(b.images)*hostManagePerImage)
}

// occupyServer books d on the host core srv and sleeps until it is done.
func occupyServer(p *sim.Proc, srv *sim.Server, d sim.Time) {
	p.Sleep(srv.Occupy(d) - p.Now())
}

// hostPipeline is what one host-managed reference chooses: its name,
// whether the card scales and classifies or is only a NIC, an optional
// extra PCIe device, and the host's work on each batch before SPDK
// persists it.
type hostPipeline struct {
	name     string
	classify bool
	device   func(k *sim.Kernel, f *pcie.Fabric) *pcie.Port
	step     func(p *sim.Proc, r *hostRig, b hostBatch)
}

// hostRig is the host side a batch step runs on.
type hostRig struct {
	cfg     Config
	host    *pcie.Host
	memBase uint64
	cpu     *sim.Server // the SPDK data-path core
}

// hostBatch is one filled buffer of the batch ring.
type hostBatch struct {
	idx    int    // ring slot
	addr   uint64 // bus address of the buffer
	first  int    // stream position of its first image
	images int
}

// runHostBatch is the host-batch path: the card DMAs images into a
// double-buffered batch ring in pinned host memory, and one host thread
// runs the pipeline's step on each ready batch, writes it to the SSD with
// SPDK ("we process the incoming data in batches – e.g., 32 images",
// §6.1), then recycles the buffer.
func runHostBatch(cfg Config, hp hostPipeline) Result {
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

	// The FPGA card: the accelerator front end or a bare NIC, plus a DMA
	// engine toward host memory.
	card := f.AttachPort("card", pcie.LinkConfig{
		Gen: pcie.Gen3, Lanes: 16, MaxReadRequest: 4096, ReadCredits: 8,
	}, nil)
	f.IOMMU().Grant("card", hostCfg.MemBase, hostCfg.MemSize)
	ports := map[string]*pcie.Port{"card": card, "ssd": dev.Port(), "host": host.Port}
	if hp.device != nil {
		pt := hp.device(k, f)
		f.IOMMU().Grant(pt.Name(), hostCfg.MemBase, hostCfg.MemSize)
		ports[pt.Name()] = pt
	}

	fe := newFrontEnd(k, cfg, hp.classify)
	images := cfg.Source.Count
	perImage := cfg.imageWriteBytes()
	batchBytes := perImage * int64(cfg.BatchSize)

	bufs := []uint64{
		host.Alloc(batchBytes, nvme.PageSize),
		host.Alloc(batchBytes, nvme.PageSize),
	}
	bufFree := sim.NewChan[int](k, 2)
	bufReady := sim.NewChan[hostBatch](k, 2)
	bufFree.TryPut(0)
	bufFree.TryPut(1)

	var start, end sim.Time
	var cpuBusy sim.Time

	// Card DMA: fill the current batch buffer image by image.
	k.Spawn("dma", func(p *sim.Proc) {
		p.SetDaemon(true)
		for count := 0; count < images; {
			b := hostBatch{idx: bufFree.Get(p), first: count, images: min(cfg.BatchSize, images-count)}
			b.addr = bufs[b.idx]
			for i := 0; i < b.images; i++ {
				it := fe.out.Get(p)
				card.WriteB(p, b.addr+uint64(int64(i)*perImage), perImage, cfg.payload(it, perImage))
			}
			count += b.images
			bufReady.Put(p, b)
		}
	})

	k.Spawn("host", func(p *sim.Proc) {
		drvCfg := spdk.DefaultDriverConfig()
		drvCfg.Functional = cfg.Functional
		d, err := spdk.Attach(p, host, caseSSDBAR, drvCfg)
		if err != nil {
			panic(err)
		}
		r := &hostRig{cfg: cfg, host: host, memBase: hostCfg.MemBase, cpu: d.CPU()}
		var cursor uint64
		for written := 0; written < images; {
			b := bufReady.Get(p)
			if written == 0 {
				// Steady-state measurement starts once the pipeline has
				// filled; the paper's 16384-image stream amortizes this
				// ramp to nothing.
				start = p.Now()
			}
			hp.step(p, r, b)
			// One CPU-managed write per batch; SPDK splits into 1 MiB
			// commands internally.
			n := int64(b.images) * perImage
			if err := d.Write(p, cursor/512, uint32(n/512), b.addr, nil); err != nil {
				panic(err)
			}
			cursor += uint64(n)
			written += b.images
			bufFree.Put(p, b.idx)
		}
		end = p.Now()
		cpuBusy = r.cpu.BusyTime()
	})
	k.Run(0)

	res := Result{
		Variant:        hp.name,
		Images:         images,
		Bytes:          perImage * int64(images),
		Elapsed:        end - start,
		PCIe:           map[string]int64{},
		HostCPUBusy:    cpuBusy,
		BusyPolling:    true,
		EthernetPauses: fe.tx.PausesHonored(),
		FramesDropped:  fe.rx.FramesDropped(),
		Errors:         dev.Errors(),
	}
	collectPCIe(&res, ports)
	return res
}
