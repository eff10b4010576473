package spdk

import (
	"snacc/internal/nvme"
	"snacc/internal/sim"
)

// PerfResult is one bandwidth measurement.
type PerfResult struct {
	Bytes   int64
	Elapsed sim.Time
}

// GBps returns decimal gigabytes per second, the paper's unit.
func (r PerfResult) GBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Elapsed.Seconds() / 1e9
}

// drive keeps the driver's queue depth saturated with operations produced by
// next (which returns false when the workload is exhausted) and blocks p
// until every issued operation completed.
func drive(p *sim.Proc, d *Driver, next func(cb func(error)) bool) {
	k := p.Kernel()
	doneCh := sim.NewChan[struct{}](k, 1)
	inflight := 0
	exhausted := false
	var pump func()
	pump = func() {
		for !exhausted && inflight < d.QueueDepth() {
			issued := next(func(err error) {
				if err != nil {
					panic(err)
				}
				inflight--
				if exhausted && inflight == 0 {
					doneCh.TryPut(struct{}{})
					return
				}
				pump()
			})
			if !issued {
				exhausted = true
				break
			}
			inflight++
		}
		if exhausted && inflight == 0 {
			doneCh.TryPut(struct{}{})
		}
	}
	pump()
	doneCh.Get(p)
}

// Sequential measures a sequential transfer of totalBytes in cmdBytes
// commands starting at startLBA.
func Sequential(p *sim.Proc, d *Driver, op uint8, totalBytes, cmdBytes int64, startLBA uint64) PerfResult {
	if cmdBytes%d.LBASize() != 0 || totalBytes%cmdBytes != 0 {
		panic("spdk: sequential workload sizes must align")
	}
	// One buffer per queue slot, reused round-robin.
	bufs := make([]uint64, d.QueueDepth())
	for i := range bufs {
		bufs[i] = d.AllocBuffer(cmdBytes)
	}
	start := p.Now()
	issued := int64(0)
	i := 0
	drive(p, d, func(cb func(error)) bool {
		if issued >= totalBytes {
			return false
		}
		lba := startLBA + uint64(issued/d.LBASize())
		buf := bufs[i%len(bufs)]
		i++
		issued += cmdBytes
		blocks := uint32(cmdBytes / d.LBASize())
		if op == nvme.OpRead {
			d.ReadAsync(lba, blocks, buf, nil, cb)
		} else {
			d.WriteAsync(lba, blocks, buf, nil, cb)
		}
		return true
	})
	return PerfResult{Bytes: totalBytes, Elapsed: p.Now() - start}
}

// RandomIO measures totalBytes moved in ioBytes commands at uniformly
// random, ioBytes-aligned addresses.
func RandomIO(p *sim.Proc, d *Driver, op uint8, totalBytes, ioBytes int64, seed uint64) PerfResult {
	rng := sim.NewRand(seed)
	bufs := make([]uint64, d.QueueDepth())
	for i := range bufs {
		bufs[i] = d.AllocBuffer(ioBytes)
	}
	// Constrain the address space to a realistic preconditioned span.
	spanBlocks := int64(d.CapacityBlocks()) / 2
	blocksPerIO := ioBytes / d.LBASize()
	start := p.Now()
	issued := int64(0)
	i := 0
	drive(p, d, func(cb func(error)) bool {
		if issued >= totalBytes {
			return false
		}
		issued += ioBytes
		lba := uint64(rng.Int63n(spanBlocks/blocksPerIO)) * uint64(blocksPerIO)
		buf := bufs[i%len(bufs)]
		i++
		if op == nvme.OpRead {
			d.ReadAsync(lba, uint32(blocksPerIO), buf, nil, cb)
		} else {
			d.WriteAsync(lba, uint32(blocksPerIO), buf, nil, cb)
		}
		return true
	})
	return PerfResult{Bytes: totalBytes, Elapsed: p.Now() - start}
}

// Latency measures per-command latency at queue depth 1 and returns the
// samples in measurement order.
func Latency(p *sim.Proc, d *Driver, op uint8, ioBytes int64, samples int, seed uint64) []sim.Time {
	rng := sim.NewRand(seed)
	buf := d.AllocBuffer(ioBytes)
	blocksPerIO := ioBytes / d.LBASize()
	spanBlocks := int64(d.CapacityBlocks()) / 2
	lat := make([]sim.Time, 0, samples)
	for s := 0; s < samples; s++ {
		lba := uint64(rng.Int63n(spanBlocks/blocksPerIO)) * uint64(blocksPerIO)
		start := p.Now()
		var err error
		if op == nvme.OpRead {
			err = d.Read(p, lba, uint32(blocksPerIO), buf, nil)
		} else {
			err = d.Write(p, lba, uint32(blocksPerIO), buf, nil)
		}
		if err != nil {
			panic(err)
		}
		// The calibrated observation residual applies to the latency
		// measurement only (see DriverConfig.ReadObservationDelay).
		if op == nvme.OpRead {
			p.Sleep(d.cfg.ReadObservationDelay)
		}
		lat = append(lat, p.Now()-start)
	}
	return lat
}
