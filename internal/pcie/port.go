package pcie

import "snacc/internal/sim"

// Port is one device's attachment to the fabric. It can initiate reads and
// writes toward any mapped address and, if it carries a Completer, serve
// transactions that target its own ranges.
type Port struct {
	f         *Fabric
	name      string
	cfg       LinkConfig
	completer Completer

	// tx serializes traffic this port sends toward the root complex
	// (write payloads, read requests, read completions for its own BARs).
	// rx serializes traffic arriving at this port.
	tx, rx *sim.Pipe

	credits *creditGate
	// ctrlCredits is a separate outstanding-read pool for small control
	// transactions (queue-entry and PRP-list fetches). Real controllers
	// run command fetch and data DMA from separate tag pools, so control
	// reads must not steal data-path read credits.
	ctrlCredits *creditGate

	// readPadding is added to every read-chunk completion. The NVMe device
	// model uses it to reproduce the SSD's firmware banding epochs (§5.2's
	// alternating write bandwidth).
	readPadding sim.Time

	// tracer, when attached, captures transactions at this port's
	// completer boundary (the paper's ILA methodology).
	tracer *Tracer

	// identity is the optional config-space header for enumeration.
	identity *Identity

	// Payload accounting for Figure 7: bytes of useful data moved, by
	// direction, excluding header overhead.
	payloadTx int64
	payloadRx int64
}

// Name returns the port name.
func (pt *Port) Name() string { return pt.name }

// Link returns the port's link configuration.
func (pt *Port) Link() LinkConfig { return pt.cfg }

// Fabric returns the owning fabric.
func (pt *Port) Fabric() *Fabric { return pt.f }

// SetReadPadding adds d to the completion path of every subsequent read
// chunk issued by this port.
func (pt *Port) SetReadPadding(d sim.Time) { pt.readPadding = d }

// PayloadTx returns useful bytes this port has sent (writes it initiated
// plus read completions it served).
func (pt *Port) PayloadTx() int64 { return pt.payloadTx }

// PayloadRx returns useful bytes delivered to this port.
func (pt *Port) PayloadRx() int64 { return pt.payloadRx }

// ResetStats zeroes the payload counters and the underlying pipe counters.
func (pt *Port) ResetStats() {
	pt.payloadTx, pt.payloadRx = 0, 0
	pt.tx.ResetStats()
	pt.rx.ResetStats()
}

// writeGranule bounds how much of a posted burst is booked onto the TX link
// at once. Real PCIe arbitrates at TLP granularity, so a megabyte burst must
// not head-of-line-block a 16-byte completion or doorbell for milliseconds;
// chaining the booking in granules lets competing traffic interleave with at
// most a few microseconds of skew.
const writeGranule = 32 * sim.KiB

// Write issues a posted write of n payload bytes to addr. data, unless
// empty, is the content (length n) delivered to the target's completer; the
// initiator keeps its references until fn runs. fn (may be nil) runs when
// the last byte has been delivered into the target. Posted writes consume
// no credits: the initiator's link is the only throttle, which is what lets
// the SSD stream read data into any buffer at full rate.
func (pt *Port) Write(addr uint64, n int64, data Payload, fn func()) {
	if n > writeGranule {
		// Chain granule-sized sub-writes: the next granule books its TX
		// slot when the previous granule finishes *serializing*, so the
		// burst still streams at link rate while competing small TLPs can
		// slot in between granules.
		k := pt.f.k
		var step func(off int64)
		step = func(off int64) {
			m := int64(writeGranule)
			last := false
			if m >= n-off {
				m = n - off
				last = true
			}
			d := data.Slice(int(off), int(m))
			cb := fn
			if !last {
				cb = nil
			}
			txDone := pt.writeOne(addr+uint64(off), m, d, cb)
			if !last {
				k.At(txDone, func() { step(off + m) })
			}
		}
		step(0)
		return
	}
	pt.writeOne(addr, n, data, fn)
}

// writeOne books a single posted burst and returns when its TX
// serialization completes.
func (pt *Port) writeOne(addr uint64, n int64, data Payload, fn func()) (txDone sim.Time) {
	if n <= 0 {
		if fn != nil {
			pt.f.k.After(0, fn)
		}
		return pt.f.k.Now()
	}
	dst := pt.f.routeOrPanic(pt, addr, n)
	pt.payloadTx += n
	wire := pt.f.wireBytes(n, pt.cfg.MaxPayload)
	hop := pt.f.hopLatency(pt, dst)
	k := pt.f.k
	// Cut-through: the burst serializes on our TX link, and the target's RX
	// link starts serializing once the first TLP has crossed the fabric.
	txStart, txEnd := pt.tx.ReserveFrom(k.Now(), wire)
	firstTLP := pt.cfg.MaxPayload + pt.f.cfg.TLPHeaderBytes
	if firstTLP > wire {
		firstTLP = wire
	}
	firstAtDst := txStart + sim.TransferTime(firstTLP, pt.tx.BytesPerSec) + hop
	_, rxDone := dst.rx.ReserveFrom(firstAtDst, wire)
	delivered := txEnd + hop
	if rxDone > delivered {
		delivered = rxDone
	}
	k.At(delivered, func() {
		dst.payloadRx += n
		dst.tracer.record(TraceWriteIn, addr, n)
		if dst.completer != nil {
			dst.completer.CompleteWrite(addr, n, data)
		}
		if fn != nil {
			fn()
		}
	})
	return txEnd
}

// Read issues a non-posted read of n payload bytes from addr, split into
// MaxReadRequest-sized requests each holding one outstanding-read credit.
// dst, unless empty (length n), receives the content: each request fills its
// slice of dst when the target's completer serves it. fn (may be nil) runs
// when the final completion byte has arrived. The credit window divided by
// the round-trip latency bounds read throughput — the mechanism behind the
// paper's P2P write-bandwidth ceiling (§5.2).
func (pt *Port) Read(addr uint64, n int64, dst Payload, fn func()) {
	pt.read(addr, n, dst, fn, pt.credits)
}

// ReadCtrl issues a read through the control-transaction credit pool,
// keeping queue-entry and PRP-list fetches off the data-path credits. buf,
// if non-nil (length n), receives the content.
func (pt *Port) ReadCtrl(addr uint64, n int64, buf []byte, fn func()) {
	pt.read(addr, n, Bytes(buf), fn, pt.ctrlCredits)
}

func (pt *Port) read(addr uint64, n int64, buf Payload, fn func(), gate *creditGate) {
	if n <= 0 {
		if fn != nil {
			pt.f.k.After(0, fn)
		}
		return
	}
	r := &readReq{pt: pt, dst: pt.f.routeOrPanic(pt, addr, n), addr: addr, n: n,
		buf: buf, fn: fn, gate: gate, remaining: n}
	r.issue()
}

// readReq is one Read in flight: MaxReadRequest-sized requests, each
// holding a credit from gate while outstanding.
type readReq struct {
	pt, dst *Port
	addr    uint64
	n       int64
	buf     Payload
	fn      func()
	gate    *creditGate

	remaining int64 // bytes not yet requested
	pending   int   // requests in flight
	finished  bool  // every request issued
}

// issue requests the next chunk once a credit is free, or notes that every
// chunk has been requested.
func (r *readReq) issue() {
	if r.remaining <= 0 {
		r.finished = true
		if r.pending == 0 && r.fn != nil {
			r.fn()
		}
		return
	}
	chunk := min(r.pt.cfg.MaxReadRequest, r.remaining)
	off := r.n - r.remaining
	r.remaining -= chunk
	r.pending++
	r.gate.acquire(func() {
		r.pt.issueReadChunk(r, off, chunk)
		// Pipeline the next request as soon as this one is on the wire.
		r.issue()
	})
}

// chunkDone returns a completed request's credit, and runs fn after the
// last one.
func (r *readReq) chunkDone() {
	r.gate.release()
	r.pending--
	if r.finished && r.pending == 0 && r.fn != nil {
		r.fn()
	}
}

// issueReadChunk performs one credit's worth of r: request TLP out, target
// access, completion data back. The target fills bytes [off, off+n) of
// r.buf when it serves the request.
func (pt *Port) issueReadChunk(r *readReq, off, n int64) {
	k := pt.f.k
	dst := r.dst
	addr := r.addr + uint64(off)
	hdr := pt.f.cfg.TLPHeaderBytes
	hopOut := pt.f.hopLatency(pt, dst)
	pad := pt.readPadding
	reqAt := pt.tx.Reserve(hdr)
	k.At(reqAt+hopOut, func() {
		arriveAt := dst.rx.Reserve(hdr)
		k.At(arriveAt, func() {
			dst.tracer.record(TraceReadReq, addr, n)
			complete := func() {
				// Completion data returns over the target's TX link.
				wire := pt.f.wireBytes(n, dst.cfg.MaxPayload)
				dst.payloadTx += n
				dst.tracer.record(TraceReadCpl, addr, n)
				cplAt := dst.tx.Reserve(wire)
				hopBack := pt.f.hopLatency(dst, pt)
				k.At(cplAt+hopBack+pad, func() {
					rxAt := pt.rx.Reserve(wire)
					k.At(rxAt, func() {
						pt.payloadRx += n
						r.chunkDone()
					})
				})
			}
			if dst.completer != nil {
				dst.completer.CompleteRead(addr, n, r.buf.Slice(int(off), int(n)), complete)
			} else {
				complete()
			}
		})
	})
}

// WriteB is a blocking wrapper around Write for process-model callers:
// data (nil for timing-only) is the content, and p parks until the write
// has been delivered.
func (pt *Port) WriteB(p *sim.Proc, addr uint64, n int64, data []byte) {
	done := false
	pt.Write(addr, n, Bytes(data), func() { done = true; p.Wake() })
	for !done {
		p.Park()
	}
}

// ReadB is a blocking wrapper around Read for process-model callers: buf
// (nil for timing-only) receives the content, and p parks until the last
// completion has arrived.
func (pt *Port) ReadB(p *sim.Proc, addr uint64, n int64, buf []byte) {
	done := false
	pt.Read(addr, n, Bytes(buf), func() { done = true; p.Wake() })
	for !done {
		p.Park()
	}
}

// creditGate is a callback-style counting semaphore for outstanding reads.
type creditGate struct {
	avail int
	q     []func()
}

func newCreditGate(n int) *creditGate { return &creditGate{avail: n} }

func (c *creditGate) acquire(fn func()) {
	if c.avail > 0 {
		c.avail--
		fn()
		return
	}
	c.q = append(c.q, fn)
}

func (c *creditGate) release() {
	if len(c.q) > 0 {
		fn := c.q[0]
		c.q = c.q[1:]
		fn()
		return
	}
	c.avail++
}
