package sim

// Pipe models a serializing, bandwidth-limited, fixed-latency link such as a
// PCIe lane bundle, a DRAM data bus, or an Ethernet wire. Transfers are
// serialized FIFO onto the link: a transfer occupies the link for
// size/bandwidth seconds starting no earlier than the previous transfer
// finished serializing, and is delivered Latency after its serialization
// completes (cut-through is deliberately not modeled; the hardware this
// repository reproduces is store-and-forward at every hop that matters).
type Pipe struct {
	k *Kernel

	// BytesPerSec is the serialization bandwidth of the link.
	BytesPerSec float64
	// Latency is the propagation delay added after serialization.
	Latency Time

	busyUntil Time

	// Stats.
	bytesMoved int64
	transfers  int64
}

// NewPipe creates a link with the given bandwidth and propagation latency.
func NewPipe(k *Kernel, bytesPerSec float64, latency Time) *Pipe {
	if bytesPerSec <= 0 {
		panic("sim: pipe bandwidth must be positive")
	}
	return &Pipe{k: k, BytesPerSec: bytesPerSec, Latency: latency}
}

// Reserve books n bytes onto the link and returns the simulated time at
// which they are delivered at the far end. It never blocks; callers that
// model blocking senders should Sleep until the returned time.
func (pp *Pipe) Reserve(n int64) (delivered Time) {
	_, delivered = pp.ReserveFrom(pp.k.now, n)
	return delivered
}

// ReserveFrom books n bytes onto the link starting no earlier than
// `earliest`, returning when serialization begins and when the last byte is
// delivered. It lets callers model cut-through pipelines: a downstream link
// reserves starting at the moment the first bytes could arrive from the
// upstream link rather than after the whole burst has been serialized.
func (pp *Pipe) ReserveFrom(earliest Time, n int64) (start, delivered Time) {
	start = pp.k.now
	if earliest > start {
		start = earliest
	}
	if pp.busyUntil > start {
		start = pp.busyUntil
	}
	ser := TransferTime(n, pp.BytesPerSec)
	pp.busyUntil = start + ser
	pp.bytesMoved += n
	pp.transfers++
	return start, pp.busyUntil + pp.Latency
}

// Transfer moves n bytes across the link, blocking p until delivery.
func (pp *Pipe) Transfer(p *Proc, n int64) {
	pp.TransferStep(p, n)
	p.yield()
}

// TransferStep is Transfer for a step process: it books n bytes onto the
// link, and p's next step runs at their delivery.
func (pp *Pipe) TransferStep(p *Proc, n int64) {
	p.SleepStep(pp.Reserve(n) - p.Now())
}

// BusyUntil returns the time the link finishes serializing queued traffic.
func (pp *Pipe) BusyUntil() Time { return pp.busyUntil }

// BytesMoved returns the total payload bytes booked onto the link.
func (pp *Pipe) BytesMoved() int64 { return pp.bytesMoved }

// Transfers returns the number of transfers booked onto the link.
func (pp *Pipe) Transfers() int64 { return pp.transfers }
