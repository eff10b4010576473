package ethernet

import (
	"fmt"

	"snacc/internal/sim"
)

// Switch is a store-and-forward Ethernet switch with per-egress buffering
// and 802.3x participation: when an egress buffer fills (because the
// downstream receiver paused us), the switch pauses the corresponding
// ingress links — "intermediary switches ... will first pause locally
// before propagating the pause request further" (§4.7).
type Switch struct {
	name  string
	cfg   Config
	ports []*switchPort
	// bufferBytes bounds each egress queue.
	bufferBytes int64
	// framesDropped counts frames lost to egress-buffer overrun (only
	// possible with flow control disabled).
	framesDropped int64
}

// FramesDropped returns frames lost to egress-buffer overrun across all
// ports.
func (sw *Switch) FramesDropped() int64 { return sw.framesDropped }

// switchPort is one switch port: an ingress receiver plus an egress link
// toward the attached MAC. The link's PAUSE emission pauses that MAC on
// behalf of whichever egress its traffic congests.
type switchPort struct {
	sw       *Switch
	tx       link
	occupied int64
}

// NewSwitch creates a switch with n ports.
func NewSwitch(k *sim.Kernel, name string, cfg Config, n int, bufferBytes int64) *Switch {
	sw := &Switch{name: name, cfg: cfg, bufferBytes: bufferBytes}
	for i := 0; i < n; i++ {
		p := &switchPort{sw: sw}
		p.tx.start(k, fmt.Sprintf("%s.port%d.tx", name, i), &sw.cfg, 1<<20, &p.occupied)
		sw.ports = append(sw.ports, p)
	}
	return sw
}

// Attach connects a MAC to switch port idx.
func (sw *Switch) Attach(idx int, m *MAC) {
	p := sw.ports[idx]
	p.tx.peer = m
	m.tx.peer = p
}

// deliver implements receiver for ingress traffic arriving at any port: the
// MAC's peer pointer references the port, so pause frames from the attached
// MAC land here and pause this port's egress.
func (p *switchPort) deliver(f Frame) {
	if f.pause {
		p.tx.pause(f.quanta)
		return
	}
	dst := f.DstPort
	if dst < 0 || dst >= len(p.sw.ports) {
		panic(fmt.Sprintf("ethernet: switch %s has no port %d", p.sw.name, dst))
	}
	out := p.sw.ports[dst]
	if out.occupied+f.Bytes > p.sw.bufferBytes && !p.sw.cfg.PauseEnabled {
		p.sw.framesDropped++
		return // no flow control and truly out of space
	}
	// With flow control on, the frame is retained even past the bound — a
	// real switch would have paused earlier via thresholds; a small elastic
	// margin keeps the frame-level model simple.
	out.occupied += f.Bytes
	if !out.tx.txq.TryPut(f) {
		panic("ethernet: switch egress queue overflow")
	}
	// Threshold-based upstream pause, renewed on a timer while the egress
	// stays congested (new arrivals stop once upstream is paused, so
	// arrival-driven renewal alone would let the sender free-run whenever a
	// quanta lapses).
	p.tx.throttle(&out.occupied, p.sw.bufferBytes)
}
