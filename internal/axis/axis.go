// Package axis models AXI4-Stream interfaces at burst granularity: packets
// carry an aggregate byte count (and optionally real content), serialization
// time follows from the stream's width and clock, and bounded FIFO depth
// provides the ready/valid backpressure the protocol gives hardware designs.
//
// The NVMe Streamer exposes exactly four of these to the user PE (§4.1):
// read command, read data, write (command beat + data beats + TLAST), and
// write response.
package axis

import (
	"snacc/internal/pcie"
	"snacc/internal/sim"
)

// Packet is one transfer unit: a run of beats ending (optionally) in TLAST.
type Packet struct {
	// Bytes is the payload size; a zero-byte packet (a bare token, e.g. a
	// write response) still costs one beat.
	Bytes int64
	// Last mirrors TLAST, delimiting application-level messages.
	Last bool
	// Data optionally carries real content in functional simulations: a
	// byte view of what a PE streams in, or page references a Streamer
	// drains out of its staging memory (see pcie.Payload). Whoever receives
	// the packet owns its Data and releases it once done.
	Data pcie.Payload
	// Meta carries typed side-band information (TUSER), e.g. a command
	// header.
	Meta any
}

// Stream is one unidirectional AXI4-Stream channel.
type Stream struct {
	name  string
	k     *sim.Kernel
	wire  *sim.Pipe
	fifo  *sim.Chan[Packet]
	space *sim.Resource // byte-granular FIFO occupancy

	bytesMoved int64
	packets    int64
}

// Config describes a stream's physical parameters.
type Config struct {
	WidthBytes int64
	ClockHz    float64
	// DepthBytes is the FIFO capacity providing backpressure slack.
	DepthBytes int64
}

// DefaultConfig is the 64-byte, 300 MHz configuration the Streamer runs at
// on the Alveo U280 (19.2 GB/s per stream).
func DefaultConfig() Config {
	return Config{WidthBytes: 64, ClockHz: 300e6, DepthBytes: 64 * sim.KiB}
}

// New creates a stream.
func New(k *sim.Kernel, name string, cfg Config) *Stream {
	if cfg.WidthBytes <= 0 || cfg.ClockHz <= 0 || cfg.DepthBytes <= 0 {
		panic("axis: invalid stream config")
	}
	return &Stream{
		name:  name,
		k:     k,
		wire:  sim.NewPipe(k, float64(cfg.WidthBytes)*cfg.ClockHz, 0),
		fifo:  sim.NewChan[Packet](k, 1<<20), // ordering only; space bounds occupancy
		space: sim.NewResource(k, cfg.DepthBytes),
	}
}

// cost returns the FIFO bytes a packet occupies. Tokens still take a beat,
// and a packet larger than the FIFO occupies it fully while its beats
// trickle through (hardware never sees whole packets at once).
func (s *Stream) cost(pkt Packet) int64 {
	switch {
	case pkt.Bytes <= 0:
		return 1
	case pkt.Bytes > s.space.Capacity():
		return s.space.Capacity()
	default:
		return pkt.Bytes
	}
}

// Send serializes pkt onto the stream, blocking p on backpressure (FIFO
// full) and for the beat time of the payload.
func (s *Stream) Send(p *sim.Proc, pkt Packet) {
	s.space.Acquire(p, s.cost(pkt))
	// Serialization always charges the full payload; only the FIFO
	// occupancy is capped at the FIFO capacity.
	beats := pkt.Bytes
	if beats <= 0 {
		beats = 1
	}
	s.wire.Transfer(p, beats)
	s.bytesMoved += pkt.Bytes
	s.packets++
	s.fifo.Put(p, pkt)
}

// SendStep is Send for a step process. It reports true once pkt is in the
// FIFO. Otherwise p is blocked, and its next step must call SendStep again
// with the same packet and phase. *phase records how far the send got: it
// must be 0 at the first call, and it is 0 again once SendStep reports
// true.
func (s *Stream) SendStep(p *sim.Proc, phase *uint8, pkt Packet) bool {
	switch *phase {
	case 0:
		*phase = 1
		if !s.space.AcquireStep(p, s.cost(pkt)) {
			return false
		}
		fallthrough
	case 1:
		beats := pkt.Bytes
		if beats <= 0 {
			beats = 1
		}
		*phase = 2
		s.wire.TransferStep(p, beats)
		return false
	case 2:
		s.bytesMoved += pkt.Bytes
		s.packets++
		*phase = 3
		if !s.fifo.PutStep(p, pkt) {
			return false
		}
	}
	*phase = 0
	return true
}

// Recv takes the next packet, blocking p while the stream is empty.
func (s *Stream) Recv(p *sim.Proc) Packet {
	pkt := s.fifo.Get(p)
	s.space.Release(s.cost(pkt))
	return pkt
}

// RecvStep is Recv for a step process: it takes the next packet and reports
// true, or, while the stream is empty, blocks p and reports false; p's next
// step must call RecvStep again, which returns the packet.
func (s *Stream) RecvStep(p *sim.Proc) (Packet, bool) {
	pkt, ok := s.fifo.GetStep(p)
	if ok {
		s.space.Release(s.cost(pkt))
	}
	return pkt, ok
}

// TryRecv takes the next packet without blocking.
func (s *Stream) TryRecv() (Packet, bool) {
	pkt, ok := s.fifo.TryGet()
	if ok {
		s.space.Release(s.cost(pkt))
	}
	return pkt, ok
}

// Pending returns the number of queued packets.
func (s *Stream) Pending() int { return s.fifo.Len() }

// BytesMoved returns total payload bytes sent.
func (s *Stream) BytesMoved() int64 { return s.bytesMoved }

// Packets returns the packet count.
func (s *Stream) Packets() int64 { return s.packets }
