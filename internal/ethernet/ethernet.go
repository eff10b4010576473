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

// MAC is one Ethernet endpoint.
type MAC struct {
	k    *sim.Kernel
	name string
	cfg  Config

	// peer receives what we transmit.
	peer receiver

	// txq holds frames awaiting transmission; the transmitter process
	// fully buffers each frame before serialization (§4.7 store-and-
	// forward), pausing between frames when flow-controlled.
	txq      *sim.Chan[Frame]
	wire     *sim.Pipe
	txProc   *sim.Proc
	inFlight flights

	// pausedUntil implements received PAUSE state.
	pausedUntil sim.Time

	// Receive side.
	rxq         *sim.Chan[Frame]
	rxOccupied  int64
	pauseSent   bool
	pauseActive bool

	// Stats.
	framesSent, framesDropped int64
	bytesSent, bytesReceived  int64
	pausesSent, pausesHonored int64
}

// receiver is the far end of a link: another MAC or a switch port.
type receiver interface {
	deliver(f Frame)
}

// NewMAC creates an endpoint. Connect it before use.
func NewMAC(k *sim.Kernel, name string, cfg Config) *MAC {
	m := &MAC{
		k:    k,
		name: name,
		cfg:  cfg,
		txq:  sim.NewChan[Frame](k, 1024),
		wire: sim.NewPipe(k, cfg.BytesPerSec(), cfg.WireLatency),
		rxq:  sim.NewChan[Frame](k, 1<<20),
	}
	m.txProc = k.Spawn(name+".tx", m.txLoop)
	return m
}

// wireBytes charges per-frame overhead once per MTU.
func (m *MAC) wireBytes(n int64) int64 { return m.cfg.WireBytes(n) }

// Connect links two MACs full duplex.
func Connect(a, b *MAC) {
	a.peer = b
	b.peer = a
}

// Send queues a frame for transmission, blocking p when the TX queue is
// full.
func (m *MAC) Send(p *sim.Proc, f Frame) {
	m.txq.Put(p, f)
}

// TrySend queues a frame for transmission without blocking, reporting false
// when the TX queue is full. An open-loop load source uses this to shed load
// at the bound instead of buffering arrivals without limit: when received
// pause frames stall the transmitter, the TX queue fills, TrySend starts
// failing, and the caller decides what to drop.
func (m *MAC) TrySend(f Frame) bool {
	return m.txq.TryPut(f)
}

// TxQueueLen reports the frames waiting in the TX queue (not yet begun
// transmission).
func (m *MAC) TxQueueLen() int { return m.txq.Len() }

// Recv takes the next received frame, blocking p while none is pending.
// Consuming a frame frees FIFO space and may trigger a resume.
func (m *MAC) Recv(p *sim.Proc) Frame {
	f := m.rxq.Get(p)
	m.rxOccupied -= f.Bytes
	if m.cfg.PauseEnabled && m.pauseSent && float64(m.rxOccupied) <= m.cfg.LoWater*float64(m.cfg.RxFIFOBytes) {
		m.pauseSent = false
		m.sendPause(0) // quanta 0: resume
	}
	return f
}

// txLoop transmits queued frames, honoring pause state. The sender blocks
// only for wire serialization; store-and-forward buffering and propagation
// add *latency* to delivery while back-to-back frames pipeline (§4.7 —
// full buffering "increases latency", not throughput).
func (m *MAC) txLoop(p *sim.Proc) {
	p.SetDaemon(true)
	for {
		f := m.txq.Get(p)
		for {
			if wait := m.pausedUntil - p.Now(); wait > 0 && m.cfg.PauseEnabled {
				m.pausesHonored++
				p.Sleep(wait)
				continue
			}
			break
		}
		storeDelay := sim.TransferTime(minI64(f.Bytes, m.cfg.MTU), m.cfg.BytesPerSec())
		delivered := m.wire.Reserve(m.wireBytes(f.Bytes))
		m.framesSent++
		m.bytesSent += f.Bytes
		if m.peer == nil {
			panic("ethernet: MAC " + m.name + " transmitting with no peer")
		}
		m.inFlight.send(m.k, delivered+storeDelay, m.peer, f, nil)
		// Block for serialization only; latency and buffering pipeline.
		p.Sleep(delivered - m.cfg.WireLatency - p.Now())
	}
}

// flights recycles one transmitter's in-flight frame records.
type flights struct{ free []*flight }

// flight is one frame between its transmitter and the far end of the
// link. Its callback is bound once and the record recycles when the frame
// arrives, so a frame in flight allocates nothing.
type flight struct {
	tx *flights
	to receiver
	f  Frame
	// egress, when set, is the switch egress occupancy the frame leaves
	// on arrival.
	egress *int64
	arrive func()
}

// send schedules f's arrival at to at time at.
func (fl *flights) send(k *sim.Kernel, at sim.Time, to receiver, f Frame, egress *int64) {
	var d *flight
	if n := len(fl.free); n > 0 {
		d = fl.free[n-1]
		fl.free = fl.free[:n-1]
	} else {
		d = &flight{tx: fl}
		d.arrive = d.land
	}
	d.to, d.f, d.egress = to, f, egress
	k.At(at, d.arrive)
}

func (d *flight) land() {
	to, f := d.to, d.f
	if d.egress != nil {
		*d.egress -= f.Bytes
	}
	d.to, d.f, d.egress = nil, Frame{}, nil
	d.tx.free = append(d.tx.free, d)
	to.deliver(f)
}

// sendPause emits an 802.3x control frame ahead of the data queue (control
// frames bypass the data path in real MACs; the model delivers them with
// wire latency only).
func (m *MAC) sendPause(quanta sim.Time) {
	m.pausesSent++
	f := Frame{pause: true, quanta: quanta}
	m.k.At(m.k.Now()+m.cfg.WireLatency, func() {
		if m.peer != nil {
			m.peer.deliver(f)
		}
	})
}

// deliver implements receiver.
func (m *MAC) deliver(f Frame) {
	if f.pause {
		if f.quanta == 0 {
			m.pausedUntil = m.k.Now()
		} else {
			m.pausedUntil = m.k.Now() + f.quanta
		}
		// Wake the transmitter in case it idles past the new state; the
		// txLoop re-checks pausedUntil around each frame.
		return
	}
	if m.rxOccupied+f.Bytes > m.cfg.RxFIFOBytes {
		// Overrun: without flow control this is where frames die. The
		// congestion pause must still be renewed, or a stalled consumer
		// would let the sender free-run once the first quanta lapses.
		m.framesDropped++
		m.maybePause()
		return
	}
	m.rxOccupied += f.Bytes
	m.bytesReceived += f.Bytes
	if !m.rxq.TryPut(f) {
		panic("ethernet: rx queue overflow despite FIFO accounting")
	}
	m.maybePause()
}

// maybePause starts the congestion-pause machinery. While congestion
// persists, pause frames are re-sent on a timer at half the quanta — a
// fully stalled consumer must keep the sender stopped even though no new
// arrivals trigger receive-side events (real 802.3x receivers refresh
// pause state periodically for exactly this reason).
func (m *MAC) maybePause() {
	if !m.cfg.PauseEnabled || m.pauseActive ||
		float64(m.rxOccupied) < m.cfg.HiWater*float64(m.cfg.RxFIFOBytes) {
		return
	}
	m.pauseActive = true
	m.renewPause()
}

func (m *MAC) renewPause() {
	if float64(m.rxOccupied) < m.cfg.HiWater*float64(m.cfg.RxFIFOBytes) {
		// Congestion cleared; the Recv path emits the resume frame when
		// the low watermark is crossed.
		m.pauseActive = false
		return
	}
	m.pauseSent = true
	m.sendPause(m.cfg.PauseQuanta)
	m.k.After(m.cfg.PauseQuanta/2, m.renewPause)
}

// Stats accessors.

// FramesSent returns transmitted data frames.
func (m *MAC) FramesSent() int64 { return m.framesSent }

// FramesDropped returns frames lost to receive-FIFO overrun.
func (m *MAC) FramesDropped() int64 { return m.framesDropped }

// BytesSent returns transmitted payload bytes.
func (m *MAC) BytesSent() int64 { return m.bytesSent }

// BytesReceived returns accepted payload bytes.
func (m *MAC) BytesReceived() int64 { return m.bytesReceived }

// PausesSent returns emitted pause/resume control frames.
func (m *MAC) PausesSent() int64 { return m.pausesSent }

// PausesHonored counts transmissions delayed by received pause frames.
func (m *MAC) PausesHonored() int64 { return m.pausesHonored }

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
