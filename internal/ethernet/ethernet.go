// Package ethernet models the 100 G Ethernet path SNAcc extends in TaPaSCo
// (§4.7): frame-level MACs with store-and-forward transmission, bounded
// receive FIFOs, and IEEE 802.3x pause-frame flow control — "an overrun
// receiver [sends] a pause packet to the sender", including propagation
// through an intermediary switch that "will first pause locally before
// propagating the pause request further".
//
// Without flow control a slow consumer overruns its FIFO and frames drop;
// with it, backpressure reaches the transmitter. Both behaviours are
// modeled so the tests can demonstrate why the extension exists.
package ethernet

import "snacc/internal/sim"

// Frame is one Ethernet frame (or, for efficiency, an aggregate of
// back-to-back frames totalling Bytes of payload — the wire overhead is
// charged per MTU-sized frame either way).
type Frame struct {
	Bytes int64
	Data  []byte
	Meta  any
	// DstPort selects the egress port when traversing a Switch.
	DstPort int
	// pause marks an 802.3x PAUSE control frame; Quanta is the requested
	// pause duration (zero resumes).
	pause  bool
	quanta sim.Time
}

// Config parameterizes a MAC.
type Config struct {
	// BitsPerSec is the line rate (100e9).
	BitsPerSec float64
	// MTU is the maximum frame payload; larger Frames are charged
	// per-frame overhead once per MTU.
	MTU int64
	// FrameOverheadBytes covers preamble, header, FCS and IFG per frame.
	FrameOverheadBytes int64
	// RxFIFOBytes bounds the receive buffer.
	RxFIFOBytes int64
	// PauseEnabled turns on 802.3x flow control.
	PauseEnabled bool
	// HiWater/LoWater are the FIFO thresholds for pause/resume, as
	// fractions of RxFIFOBytes.
	HiWater, LoWater float64
	// PauseQuanta is the pause duration requested by each pause frame.
	PauseQuanta sim.Time
	// WireLatency is the cable propagation delay.
	WireLatency sim.Time
}

// DefaultConfig returns the 100 G configuration with flow control enabled.
func DefaultConfig() Config {
	return Config{
		BitsPerSec:         100e9,
		MTU:                9000,
		FrameOverheadBytes: 38,
		// The FIFO is sized for the pause reaction time: at 12.5 GB/s a
		// pause needs headroom for the frames already committed to the
		// wire when the threshold trips.
		RxFIFOBytes:  512 * sim.KiB,
		PauseEnabled: true,
		HiWater:      0.5,
		LoWater:      0.2,
		PauseQuanta:  40 * sim.Microsecond,
		WireLatency:  500 * sim.Nanosecond,
	}
}

// BytesPerSec returns the payload-agnostic line rate in bytes.
func (c Config) BytesPerSec() float64 { return c.BitsPerSec / 8 }

// WireBytes returns the on-wire cost of n payload bytes, charging per-frame
// overhead once per MTU.
func (c Config) WireBytes(n int64) int64 {
	if n <= 0 {
		return c.FrameOverheadBytes + 64
	}
	frames := (n + c.MTU - 1) / c.MTU
	return n + frames*c.FrameOverheadBytes
}

// MAC is one Ethernet endpoint: a transmit link toward its peer plus a
// bounded receive FIFO that sends PAUSE back over that link.
type MAC struct {
	cfg Config
	tx  link

	// Receive side.
	rxq        *sim.Chan[Frame]
	rxOccupied int64

	framesDropped, bytesReceived int64
}

// receiver is the far end of a link: another MAC or a switch port.
type receiver interface {
	deliver(f Frame)
}

// NewMAC creates an endpoint. Connect it before use.
func NewMAC(k *sim.Kernel, name string, cfg Config) *MAC {
	m := &MAC{cfg: cfg, rxq: sim.NewChan[Frame](k, 1<<20)}
	m.tx.start(k, name+".tx", &m.cfg, 1024, nil)
	return m
}

// Connect links two MACs full duplex.
func Connect(a, b *MAC) {
	a.tx.peer = b
	b.tx.peer = a
}

// Send queues a frame for transmission, blocking p when the TX queue is
// full.
func (m *MAC) Send(p *sim.Proc, f Frame) {
	m.tx.txq.Put(p, f)
}

// TrySend queues a frame for transmission without blocking, reporting false
// when the TX queue is full. An open-loop load source uses this to shed load
// at the bound instead of buffering arrivals without limit: when received
// pause frames stall the transmitter, the TX queue fills, TrySend starts
// failing, and the caller decides what to drop.
func (m *MAC) TrySend(f Frame) bool {
	return m.tx.txq.TryPut(f)
}

// TxQueueLen reports the frames waiting in the TX queue (not yet begun
// transmission).
func (m *MAC) TxQueueLen() int { return m.tx.txq.Len() }

// Recv takes the next received frame, blocking p while none is pending.
// Consuming a frame frees FIFO space and, once the FIFO drains to the low
// watermark after a pause, sends the resume frame.
func (m *MAC) Recv(p *sim.Proc) Frame {
	f := m.rxq.Get(p)
	m.rxOccupied -= f.Bytes
	if m.cfg.PauseEnabled && m.tx.pauseSent && float64(m.rxOccupied) <= m.cfg.LoWater*float64(m.cfg.RxFIFOBytes) {
		m.tx.sendPause(0) // quanta 0: resume
	}
	return f
}

// deliver implements receiver.
func (m *MAC) deliver(f Frame) {
	if f.pause {
		m.tx.pause(f.quanta)
		return
	}
	if m.rxOccupied+f.Bytes > m.cfg.RxFIFOBytes {
		// Overrun: without flow control this is where frames die. The
		// congestion pause must still be renewed, or a stalled consumer
		// would let the sender free-run once the first quanta lapses.
		m.framesDropped++
		m.tx.throttle(&m.rxOccupied, m.cfg.RxFIFOBytes)
		return
	}
	m.rxOccupied += f.Bytes
	m.bytesReceived += f.Bytes
	if !m.rxq.TryPut(f) {
		panic("ethernet: rx queue overflow despite FIFO accounting")
	}
	m.tx.throttle(&m.rxOccupied, m.cfg.RxFIFOBytes)
}

// Stats accessors.

// FramesSent returns transmitted data frames.
func (m *MAC) FramesSent() int64 { return m.tx.framesSent }

// FramesDropped returns frames lost to receive-FIFO overrun.
func (m *MAC) FramesDropped() int64 { return m.framesDropped }

// BytesSent returns transmitted payload bytes.
func (m *MAC) BytesSent() int64 { return m.tx.bytesSent }

// BytesReceived returns accepted payload bytes.
func (m *MAC) BytesReceived() int64 { return m.bytesReceived }

// PausesSent returns emitted pause/resume control frames.
func (m *MAC) PausesSent() int64 { return m.tx.pausesSent }

// PausesHonored counts transmissions delayed by received pause frames.
func (m *MAC) PausesHonored() int64 { return m.tx.pausesHonored }
