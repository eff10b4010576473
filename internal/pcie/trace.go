package pcie

import "snacc/internal/sim"

// TraceKind classifies a traced bus event at a port.
type TraceKind uint8

// Trace event kinds, as seen at the traced port's boundary.
const (
	// TraceReadReq: a read request from a remote initiator arrived.
	TraceReadReq TraceKind = iota
	// TraceReadCpl: this port's completer returned the data.
	TraceReadCpl
	// TraceWriteIn: a posted write was delivered into this port.
	TraceWriteIn
)

// String names the kind.
func (k TraceKind) String() string {
	switch k {
	case TraceReadReq:
		return "read-req"
	case TraceReadCpl:
		return "read-cpl"
	case TraceWriteIn:
		return "write-in"
	default:
		return "?"
	}
}

// TraceEvent is one captured transaction edge.
type TraceEvent struct {
	At   sim.Time
	Kind TraceKind
	Addr uint64
	Len  int64
}

// Tracer captures transactions at a port, like the Integrated Logic
// Analyzer the paper attaches to the Streamer's DMA interface to diagnose
// the P2P write limitation (§5.2: "The read accesses employed by the NVMe
// controller ... do not occur frequently enough to sustain a higher
// bandwidth, even though our end responds immediately").
type Tracer struct {
	k *sim.Kernel
	// Filter restricts capture to matching addresses (nil captures all).
	Filter func(addr uint64, n int64) bool
	// Limit caps captured events (0 = unlimited).
	Limit int
	// Observer, when set, streams every event passing the Filter to a
	// live consumer — even after Limit stops the capture buffer — so the
	// tracer doubles as a boundary-event source for span tracing without
	// retaining unbounded state.
	Observer func(TraceEvent)
	events   []TraceEvent
}

// NewTracer creates a tracer on k.
func NewTracer(k *sim.Kernel) *Tracer { return &Tracer{k: k} }

func (t *Tracer) record(kind TraceKind, addr uint64, n int64) {
	if t == nil {
		return
	}
	if t.Filter != nil && !t.Filter(addr, n) {
		return
	}
	ev := TraceEvent{At: t.k.Now(), Kind: kind, Addr: addr, Len: n}
	if t.Observer != nil {
		t.Observer(ev)
	}
	if t.Limit > 0 && len(t.events) >= t.Limit {
		return
	}
	t.events = append(t.events, ev)
}

// Events returns the captured trace.
func (t *Tracer) Events() []TraceEvent { return t.events }

// Reset clears the capture buffer.
func (t *Tracer) Reset() { t.events = t.events[:0] }

// OfKind filters the capture by kind.
func (t *Tracer) OfKind(k TraceKind) []TraceEvent {
	var out []TraceEvent
	for _, e := range t.events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// MeanGap returns the mean inter-arrival time of events of kind k — the
// quantity the paper's ILA analysis reasons about.
func (t *Tracer) MeanGap(k TraceKind) sim.Time {
	ev := t.OfKind(k)
	if len(ev) < 2 {
		return 0
	}
	return sim.Time(int64(ev[len(ev)-1].At-ev[0].At) / int64(len(ev)-1))
}

// ServiceLatency returns the per-request response times, pairing read
// requests with completions in order.
func (t *Tracer) ServiceLatency() []sim.Time {
	reqs := t.OfKind(TraceReadReq)
	cpls := t.OfKind(TraceReadCpl)
	n := len(reqs)
	if len(cpls) < n {
		n = len(cpls)
	}
	var lat []sim.Time
	for i := 0; i < n; i++ {
		if cpls[i].At >= reqs[i].At {
			lat = append(lat, cpls[i].At-reqs[i].At)
		}
	}
	return lat
}

// AttachTracer installs tr at the port's completer boundary.
func (pt *Port) AttachTracer(tr *Tracer) { pt.tracer = tr }
