package cluster

import "snacc/internal/pcie"

// The remote streaming protocol is NVMe-oF in miniature: the coordinator
// frames command capsules onto the simulated Ethernet link and each node
// answers with a response capsule; data rides the same frames (write
// payload with the command, read payload with the response), so a transfer
// pays real store-and-forward, serialization, and 802.3x backpressure in
// the MAC/switch models. The switch's per-egress FIFO gives per-node
// in-order delivery.

// op selects a capsule's operation.
type op uint8

const (
	// opWrite carries a replica write: payload in the frame, one response
	// capsule acknowledging persistence.
	opWrite op = iota
	// opRead requests n bytes; the response capsule carries them back.
	opRead
	// opProbe is the health ladder's liveness check: a dead node's serve
	// loop still answers (the simulated NIC outlives the NVMe controller),
	// reporting whether its streamer can serve I/O.
	opProbe
)

func (o op) String() string {
	switch o {
	case opWrite:
		return "write"
	case opRead:
		return "read"
	case opProbe:
		return "probe"
	default:
		return "op?"
	}
}

// capsuleBytes is the on-wire size of a command or response capsule —
// 64 bytes, the NVMe-oF submission-capsule floor.
const capsuleBytes = 64

// capsule is one command from the coordinator to a node, riding Frame.Meta
// in a recycled record (records). A write's payload rides in it as a page
// view (Data): the capsule holds its own references to the pages, and the
// node releases them once its local write returns.
type capsule struct {
	Op   op
	ID   uint64 // request id, echoed by the response
	Node int    // destination node
	Addr uint64 // node-local device byte address
	Len  int64
	Data pcie.Payload // write payload; zero when timing-only
}

// response answers one capsule, riding Frame.Meta on the way back in a
// recycled record. A read's payload rides in it as the node's page view
// (Data), which the requester releases once it has taken what it needs. A
// frame dropped on the way, or a late reply the coordinator discards,
// leaves its pages to the garbage collector.
type response struct {
	ID   uint64
	Node int // responding node
	OK   bool
	// Err carries the node-side failure rendered to a string: capsules
	// carry plain data, not live error values.
	Err string
	// Timeout marks a synthesized response: the coordinator's watchdog
	// expired before the node answered (the node never sent this).
	Timeout bool
	Len     int64
	Data    pcie.Payload // read payload; zero when timing-only or failed
}

// records recycles the records that carry capsules and responses in
// Frame.Meta: boxing a value there would allocate a copy per frame. The
// receiver copies the value out and returns the record at once; a frame
// lost on the way leaves its record to the garbage collector.
type records[T any] struct{ free []*T }

// box returns a record holding v.
func (rs *records[T]) box(v T) *T {
	var r *T
	if n := len(rs.free); n > 0 {
		r = rs.free[n-1]
		rs.free = rs.free[:n-1]
	} else {
		r = new(T)
	}
	*r = v
	return r
}

// take returns r's value and recycles r.
func (rs *records[T]) take(r *T) T {
	v := *r
	var zero T
	*r = zero
	rs.free = append(rs.free, r)
	return v
}
