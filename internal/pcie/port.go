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
	// grants is this port's IOMMU allow-list, the one its name is granted.
	grants *grantList

	// tx serializes traffic this port sends toward the root complex
	// (write payloads, read requests, read completions for its own BARs).
	// rx serializes traffic arriving at this port.
	tx, rx *sim.Pipe

	credits *sim.Gate
	// ctrlCredits is a separate outstanding-read pool for small control
	// transactions (queue-entry and PRP-list fetches). Real controllers
	// run command fetch and data DMA from separate tag pools, so control
	// reads must not steal data-path read credits.
	ctrlCredits *sim.Gate

	// Free lists of this port's in-flight request structs (see pool.go):
	// posted writes and their granule chains, reads, and read chunks.
	writeFree []*writeReq
	readFree  []*readReq
	chunkFree []*readChunk

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

// SetReadPadding adds d to the completion path of every subsequent read
// chunk issued by this port.
func (pt *Port) SetReadPadding(d sim.Time) { pt.readPadding = d }

// PayloadTx returns useful bytes this port has sent (writes it initiated
// plus read completions it served).
func (pt *Port) PayloadTx() int64 { return pt.payloadTx }

// PayloadRx returns useful bytes delivered to this port.
func (pt *Port) PayloadRx() int64 { return pt.payloadRx }

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
		w := pt.getWriteReq()
		w.addr, w.n, w.data, w.fn = addr, n, data, fn
		w.step()
		return
	}
	pt.writeOne(addr, n, data, fn)
}

// step books the burst's next granule and, unless it is the last, chains
// the one after it to the end of its TX serialization. Only the last
// granule carries the burst's callback.
func (w *writeReq) step() {
	w.check()
	pt := w.pt
	m := int64(writeGranule)
	if m < w.n-w.off {
		txDone := pt.writeOne(w.addr+uint64(w.off), m, w.data.Slice(int(w.off), int(m)), nil)
		w.off += m
		pt.f.k.At(txDone, w.stage.step)
		return
	}
	m = w.n - w.off
	addr, d, fn := w.addr+uint64(w.off), w.data.Slice(int(w.off), int(m)), w.fn
	pt.putWriteReq(w)
	pt.writeOne(addr, m, d, fn)
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
	w := pt.getWriteReq()
	w.dst, w.addr, w.n, w.data, w.fn = dst, addr, n, data, fn
	k.At(delivered, w.stage.deliver)
	return txEnd
}

// deliver hands a posted burst to its target once the last byte is in.
func (w *writeReq) deliver() {
	w.check()
	dst, addr, n, data, fn := w.dst, w.addr, w.n, w.data, w.fn
	w.pt.putWriteReq(w)
	dst.payloadRx += n
	dst.tracer.record(TraceWriteIn, addr, n)
	if dst.completer != nil {
		dst.completer.CompleteWrite(addr, n, data)
	}
	if fn != nil {
		fn()
	}
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

func (pt *Port) read(addr uint64, n int64, buf Payload, fn func(), gate *sim.Gate) {
	if n <= 0 {
		if fn != nil {
			pt.f.k.After(0, fn)
		}
		return
	}
	r := pt.getReadReq()
	r.dst, r.addr, r.n, r.buf, r.fn, r.gate, r.remaining = pt.f.routeOrPanic(pt, addr, n), addr, n, buf, fn, gate, n
	r.issue()
}

// issue queues the next chunk for a credit, or notes that every chunk has
// been requested.
func (r *readReq) issue() {
	if r.remaining <= 0 {
		r.finished = true
		if r.pending == 0 {
			r.finish()
		}
		return
	}
	r.chunk = min(r.pt.cfg.MaxReadRequest, r.remaining)
	r.off = r.n - r.remaining
	r.remaining -= r.chunk
	r.pending++
	r.gate.Acquire(r)
}

// Grant issues the queued chunk once it holds a credit, then pipelines the
// next request as soon as this one is on the wire.
func (r *readReq) Grant() {
	r.check()
	r.pt.issueReadChunk(r, r.off, r.chunk)
	r.issue()
}

// chunkDone returns a completed request's credit, and finishes r after the
// last one.
func (r *readReq) chunkDone() {
	r.check()
	r.gate.Release()
	r.pending--
	if r.finished && r.pending == 0 {
		r.finish()
	}
}

// finish releases r and runs its callback.
func (r *readReq) finish() {
	fn := r.fn
	r.pt.putReadReq(r)
	if fn != nil {
		fn()
	}
}

// issueReadChunk performs one credit's worth of r: request TLP out, target
// access, completion data back. The target fills bytes [off, off+n) of
// r.buf when it serves the request.
func (pt *Port) issueReadChunk(r *readReq, off, n int64) {
	c := pt.getReadChunk()
	c.r, c.off, c.n, c.addr, c.pad = r, off, n, r.addr+uint64(off), pt.readPadding
	reqAt := pt.tx.Reserve(pt.f.cfg.TLPHeaderBytes)
	pt.f.k.At(reqAt+pt.f.hopLatency(pt, r.dst), c.stage.arrive)
}

// arrive books the request TLP onto the target's RX link.
func (c *readChunk) arrive() {
	c.check()
	at := c.r.dst.rx.Reserve(c.pt.f.cfg.TLPHeaderBytes)
	c.pt.f.k.At(at, c.stage.serve)
}

// serve hands the request to the target's completer.
func (c *readChunk) serve() {
	c.check()
	dst := c.r.dst
	dst.tracer.record(TraceReadReq, c.addr, c.n)
	if dst.completer != nil {
		dst.completer.CompleteRead(c.addr, c.n, c.r.buf.Slice(int(c.off), int(c.n)), c.stage.complete)
	} else {
		c.complete()
	}
}

// complete returns the completion data over the target's TX link.
func (c *readChunk) complete() {
	c.check()
	pt, dst := c.pt, c.r.dst
	c.wire = pt.f.wireBytes(c.n, dst.cfg.MaxPayload)
	dst.payloadTx += c.n
	dst.tracer.record(TraceReadCpl, c.addr, c.n)
	cplAt := dst.tx.Reserve(c.wire)
	pt.f.k.At(cplAt+pt.f.hopLatency(dst, pt)+c.pad, c.stage.ret)
}

// ret books the completion onto the initiator's RX link.
func (c *readChunk) ret() {
	c.check()
	rxAt := c.pt.rx.Reserve(c.wire)
	c.pt.f.k.At(rxAt, c.stage.land)
}

// land counts the completion in and returns the chunk's credit.
func (c *readChunk) land() {
	c.check()
	pt, r, n := c.pt, c.r, c.n
	pt.putReadChunk(c)
	pt.payloadRx += n
	r.chunkDone()
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
