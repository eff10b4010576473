package ethernet

import "snacc/internal/sim"

// link is one transmit direction of a cable, shared by a MAC and a switch
// port: the frame queue, the wire, the received PAUSE state, the frames in
// flight and the PAUSE frames this end sends back upstream.
type link struct {
	k    *sim.Kernel
	name string
	cfg  *Config
	peer receiver

	// txq holds frames awaiting transmission; the transmitter fully
	// buffers each frame before serialization (§4.7 store-and-forward),
	// pausing between frames while flow-controlled.
	txq  *sim.Chan[Frame]
	wire *sim.Pipe
	// pausedUntil is the end of the last PAUSE received from the peer.
	pausedUntil sim.Time
	free        []*flight
	// egress, when set, is the switch egress occupancy a frame leaves
	// when it arrives at the peer.
	egress *int64

	// PAUSE emission: pauseSent is whether the last PAUSE sent had
	// non-zero quanta; renewing marks an active renewal chain, which
	// watches the buffer occupancy *watch against the high watermark of
	// capacity.
	pauseSent, renewing bool
	watch               *int64
	capacity            int64
	renew               func()

	framesSent, bytesSent     int64
	pausesSent, pausesHonored int64
}

// start initializes l with a queue of txCap frames and spawns its
// transmitter as process name.
func (l *link) start(k *sim.Kernel, name string, cfg *Config, txCap int, egress *int64) {
	l.k, l.name, l.cfg, l.egress = k, name, cfg, egress
	l.txq = sim.NewChan[Frame](k, txCap)
	l.wire = sim.NewPipe(k, cfg.BytesPerSec(), cfg.WireLatency)
	l.renew = l.renewPause
	k.Spawn(name, l.run)
}

// run transmits queued frames, honoring pause state. The sender blocks
// only for wire serialization; store-and-forward buffering and propagation
// add *latency* to delivery while back-to-back frames pipeline (§4.7 —
// full buffering "increases latency", not throughput).
func (l *link) run(p *sim.Proc) {
	p.SetDaemon(true)
	for {
		f := l.txq.Get(p)
		for wait := l.pausedUntil - p.Now(); wait > 0 && l.cfg.PauseEnabled; wait = l.pausedUntil - p.Now() {
			l.pausesHonored++
			p.Sleep(wait)
		}
		if l.peer == nil {
			panic("ethernet: " + l.name + " transmitting with no peer")
		}
		storeDelay := sim.TransferTime(min(f.Bytes, l.cfg.MTU), l.cfg.BytesPerSec())
		delivered := l.wire.Reserve(l.cfg.WireBytes(f.Bytes))
		l.framesSent++
		l.bytesSent += f.Bytes
		l.send(delivered+storeDelay, f)
		p.Sleep(delivered - l.cfg.WireLatency - p.Now())
	}
}

// pause applies a PAUSE frame received from the peer; quanta 0 resumes.
func (l *link) pause(quanta sim.Time) { l.pausedUntil = l.k.Now() + quanta }

// sendPause emits an 802.3x control frame ahead of the data queue (control
// frames bypass the data path in real MACs; the model delivers them with
// wire latency only).
func (l *link) sendPause(quanta sim.Time) {
	l.pausesSent++
	l.pauseSent = quanta != 0
	l.send(l.k.Now()+l.cfg.WireLatency, Frame{pause: true, quanta: quanta})
}

// throttle starts pausing the peer once *occ reaches the high watermark
// of capacity. While congestion persists, PAUSE is re-sent every half
// quanta — a fully stalled consumer must keep the sender stopped even
// though no new arrivals trigger receive-side events (real 802.3x
// receivers refresh pause state periodically for exactly this reason). The
// chain keeps watching the buffer that started it, so a permanently
// stalled consumer keeps the kernel's event queue non-empty and such
// simulations must bound Kernel.Run with a horizon.
func (l *link) throttle(occ *int64, capacity int64) {
	if !l.cfg.PauseEnabled || l.renewing || float64(*occ) < l.cfg.HiWater*float64(capacity) {
		return
	}
	l.renewing, l.watch, l.capacity = true, occ, capacity
	l.renewPause()
}

func (l *link) renewPause() {
	if float64(*l.watch) < l.cfg.HiWater*float64(l.capacity) {
		// Congestion cleared. A MAC sends the resume frame when its FIFO
		// drains to the low watermark; a switch lets the quanta lapse.
		l.renewing = false
		return
	}
	l.sendPause(l.cfg.PauseQuanta)
	l.k.After(l.cfg.PauseQuanta/2, l.renew)
}

// flight is one frame between the transmitter and the peer. Its callback
// is bound once and the record recycles when the frame arrives, so a frame
// in flight allocates nothing.
type flight struct {
	l      *link
	f      Frame
	arrive func()
}

// send schedules f's arrival at the peer at time at.
func (l *link) send(at sim.Time, f Frame) {
	var d *flight
	if n := len(l.free); n > 0 {
		d = l.free[n-1]
		l.free = l.free[:n-1]
	} else {
		d = &flight{l: l}
		d.arrive = d.land
	}
	d.f = f
	l.k.At(at, d.arrive)
}

func (d *flight) land() {
	l, f := d.l, d.f
	if l.egress != nil {
		*l.egress -= f.Bytes // a PAUSE frame carries no bytes
	}
	d.f = Frame{}
	l.free = append(l.free, d)
	l.peer.deliver(f)
}
