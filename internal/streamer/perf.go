package streamer

import (
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

// SeqRead measures one large sequential read (the paper benchmarks "a
// single large NVMe transfer of 1 GB", split into 1 MiB commands by the
// Streamer). The caller's proc consumes the data stream.
func SeqRead(p *sim.Proc, c *Client, startAddr uint64, total int64) PerfResult {
	start := p.Now()
	c.ReadAsync(p, startAddr, total)
	var got int64
	for got < total {
		pkt := c.Streamer().ReadData.Recv(p)
		got += pkt.Bytes
		pkt.Data.Release() // benchmark drops the payload; recycle it
		if pkt.Last && got < total {
			panic("streamer: early TLAST in sequential read")
		}
	}
	return PerfResult{Bytes: total, Elapsed: p.Now() - start}
}

// SeqWrite measures one large sequential write.
func SeqWrite(p *sim.Proc, c *Client, startAddr uint64, total int64) PerfResult {
	start := p.Now()
	c.Write(p, startAddr, total, nil)
	return PerfResult{Bytes: total, Elapsed: p.Now() - start}
}

// RandRead measures total bytes moved in ioBytes-sized reads at random
// aligned addresses, pipelined against the in-order window: commands are
// issued as fast as the Streamer accepts them while a consumer drains the
// data stream.
func RandRead(p *sim.Proc, c *Client, spanBytes, total, ioBytes int64, seed uint64) PerfResult {
	k := p.Kernel()
	rng := sim.NewRand(seed)
	count := total / ioBytes
	start := p.Now()
	done := sim.NewChan[struct{}](k, 1)
	k.Spawn("randread.consumer", func(cp *sim.Proc) {
		var got int64
		for got < total {
			pkt := c.Streamer().ReadData.Recv(cp)
			got += pkt.Bytes
			pkt.Data.Release()
		}
		done.TryPut(struct{}{})
	})
	for i := int64(0); i < count; i++ {
		addr := uint64(rng.Int63n(spanBytes/ioBytes)) * uint64(ioBytes)
		c.ReadAsync(p, addr, ioBytes)
	}
	done.Get(p)
	return PerfResult{Bytes: total, Elapsed: p.Now() - start}
}

// RandWrite measures total bytes moved in ioBytes-sized writes at random
// aligned addresses. Responses are consumed concurrently.
func RandWrite(p *sim.Proc, c *Client, spanBytes, total, ioBytes int64, seed uint64) PerfResult {
	k := p.Kernel()
	rng := sim.NewRand(seed)
	count := total / ioBytes
	start := p.Now()
	done := sim.NewChan[struct{}](k, 1)
	k.Spawn("randwrite.consumer", func(cp *sim.Proc) {
		for i := int64(0); i < count; i++ {
			c.WaitWrite(cp)
		}
		done.TryPut(struct{}{})
	})
	for i := int64(0); i < count; i++ {
		addr := uint64(rng.Int63n(spanBytes/ioBytes)) * uint64(ioBytes)
		c.WriteAsync(p, addr, ioBytes, nil)
	}
	done.Get(p)
	return PerfResult{Bytes: total, Elapsed: p.Now() - start}
}

// LatencyRead measures queue-depth-1 read latency over `samples` random
// ioBytes accesses: from the command entering the read-command stream to
// the final data beat received (§5.3's measurement points).
func LatencyRead(p *sim.Proc, c *Client, spanBytes, ioBytes int64, samples int, seed uint64) *sim.Histogram {
	rng := sim.NewRand(seed)
	h := &sim.Histogram{}
	for i := 0; i < samples; i++ {
		addr := uint64(rng.Int63n(spanBytes/ioBytes)) * uint64(ioBytes)
		start := p.Now()
		c.ReadAsync(p, addr, ioBytes)
		c.DrainRead(p)
		h.Add(p.Now() - start)
	}
	return h
}

// LatencyWrite measures queue-depth-1 write latency: command+data in,
// response token out.
func LatencyWrite(p *sim.Proc, c *Client, spanBytes, ioBytes int64, samples int, seed uint64) *sim.Histogram {
	rng := sim.NewRand(seed)
	h := &sim.Histogram{}
	for i := 0; i < samples; i++ {
		addr := uint64(rng.Int63n(spanBytes/ioBytes)) * uint64(ioBytes)
		start := p.Now()
		c.Write(p, addr, ioBytes, nil)
		h.Add(p.Now() - start)
	}
	return h
}
