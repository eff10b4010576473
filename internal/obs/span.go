package obs

import (
	"snacc/internal/sim"
)

// Stage identifies one timestamped edge in an NVMe command's pipeline
// lifecycle, in pipeline order. A span records at most one final timestamp
// per stage; a resubmission (retry or post-reset replay) clears the
// device-path stages so the retained timestamps always describe the attempt
// that produced the completion.
type Stage uint8

const (
	// StageAccepted: the PE's command beat was accepted by the submit FSM.
	StageAccepted Stage = iota
	// StageBufReady: staging-buffer space is reserved (and, for writes,
	// the payload is staged) — the command can go on the wire.
	StageBufReady
	// StageSubmitted: the SQE was encoded into the SQ FIFO.
	StageSubmitted
	// StageDoorbell: the SQ tail doorbell write was posted to the device.
	StageDoorbell
	// StageFetched: the controller's fetch engine pulled the SQE over PCIe.
	StageFetched
	// StageTransfer: the controller began executing the data transfer.
	StageTransfer
	// StageCQE: the completion entry reached the reorder buffer.
	StageCQE
	// StageRetired: the command retired in order to the PE.
	StageRetired

	// NumStages bounds the per-span stage table.
	NumStages
)

var stageNames = [NumStages]string{
	"accepted", "buf-ready", "submitted", "doorbell",
	"fetched", "transfer", "cqe", "retired",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage?"
}

// AnnotKind classifies a span or tracer annotation — the fault and
// crash-recovery machinery leaving its fingerprints on the timeline.
type AnnotKind uint8

const (
	// AnnotRetry: the command was resubmitted (error status or watchdog).
	AnnotRetry AnnotKind = iota
	// AnnotTimeout: the completion watchdog expired for this command.
	AnnotTimeout
	// AnnotReplay: the command was resubmitted by the post-reset replay.
	AnnotReplay
	// AnnotBreakerTrip: the controller-failure circuit breaker opened.
	AnnotBreakerTrip
	// AnnotReset: a controller reset attempt was issued.
	AnnotReset
	// AnnotDead: the controller was declared permanently dead.
	AnnotDead
	// AnnotFailFast: the command failed fast against a dead controller
	// without ever going on the wire.
	AnnotFailFast
)

var annotNames = [...]string{
	"retry", "timeout", "replay", "breaker-trip", "reset", "dead", "fail-fast",
}

func (k AnnotKind) String() string {
	if int(k) < len(annotNames) {
		return annotNames[k]
	}
	return "annot?"
}

// Annot is one timestamped annotation.
type Annot struct {
	Kind AnnotKind
	At   sim.Time
}

// unmarked is the sentinel for a stage with no timestamp.
const unmarked = sim.Time(-1)

// Span follows one NVMe command from PE acceptance to in-order retirement.
// All methods are nil-receiver safe so instrumentation sites need no guard.
type Span struct {
	// ID numbers spans in Begin order within one Tracer.
	ID uint64
	// Op is the NVMe opcode; Write is its direction.
	Op    uint8
	Write bool
	// Addr/Len locate the command on the namespace (byte quantities).
	Addr uint64
	Len  int64
	// Status is the final NVMe status, valid once the span is closed.
	Status uint16
	// Stages holds the per-stage timestamps, unmarked (-1) where the
	// stage was never observed (e.g. no fetch for a fail-fast command).
	Stages [NumStages]sim.Time
	// Annots lists retry/replay/breaker annotations in time order.
	Annots []Annot
	// Queue is the I/O queue pair the command was placed on (0 in the
	// single-queue configuration; sticky across retries and replays).
	Queue int
	// Tenant is the tenant the command was submitted for (0 both for the
	// first tenant and for untenanted traffic; fixed at Begin time so every
	// retry and replay of the command stays attributed to its owner).
	Tenant int
	// Node is the cluster node that served the command (0 both for the
	// first node and for single-node systems; stamped at Begin time from
	// the tracer's node identity, so merged multi-node span sets stay
	// attributable).
	Node int

	closed bool
}

// SetQueue annotates the span with the I/O queue pair index the command was
// placed on.
func (sp *Span) SetQueue(q int) {
	if sp == nil || sp.closed {
		return
	}
	sp.Queue = q
}

// Mark records the timestamp of stage st. Later marks win (a resubmitted
// command re-marks the device path); marks on a closed span are dropped.
func (sp *Span) Mark(st Stage, at sim.Time) {
	if sp == nil || sp.closed {
		return
	}
	sp.Stages[st] = at
}

// Annotate appends a timestamped annotation.
func (sp *Span) Annotate(k AnnotKind, at sim.Time) {
	if sp == nil || sp.closed {
		return
	}
	sp.Annots = append(sp.Annots, Annot{Kind: k, At: at})
}

// Resubmit clears the device-path stages (submitted … cqe) ahead of a new
// attempt, so a span never mixes timestamps of different attempts: stale
// fetch/transfer marks from a superseded attempt would otherwise break
// monotonicity when the new attempt's submission lands after them.
func (sp *Span) Resubmit() {
	if sp == nil || sp.closed {
		return
	}
	for st := StageSubmitted; st <= StageCQE; st++ {
		sp.Stages[st] = unmarked
	}
}

// Monotone reports whether the marked stages carry non-decreasing
// timestamps in pipeline order — the core span invariant.
func (sp *Span) Monotone() bool {
	prev := unmarked
	for _, at := range sp.Stages {
		if at == unmarked {
			continue
		}
		if prev != unmarked && at < prev {
			return false
		}
		prev = at
	}
	return true
}

// Tracer collects spans and aggregates per-stage latency histograms. All
// methods are nil-receiver safe; a nil Tracer records nothing.
//
// Aggregation model: stage[st] is the latency of the transition INTO stage
// st, measured from the previous marked stage of the same span (skipping
// stages the completing attempt never touched), so the per-stage histograms
// tile each span's end-to-end latency exactly.
type Tracer struct {
	limit  int
	nextID uint64
	node   int

	opened      int64
	closed      int64
	dropped     int64
	late        int64
	doubleClose int64

	// openedT/closedT count spans per tenant, indexed by tenant and grown
	// on demand; the multi-tenant invariant tests diff them per tenant the
	// way opened/closed are diffed globally.
	openedT []int64
	closedT []int64

	spans    []Span
	stage    [NumStages]Hist
	readE2E  Hist
	writeE2E Hist
	events   []Annot
}

// DefaultSpanLimit caps retained completed spans unless NewTracer is told
// otherwise. Histograms and counters keep aggregating past the cap.
const DefaultSpanLimit = 512

// NewTracer returns a tracer retaining up to limit completed spans
// (DefaultSpanLimit when limit <= 0). The first limit spans to complete are
// kept — deterministic, and the interesting ones for a waterfall.
func NewTracer(limit int) *Tracer {
	if limit <= 0 {
		limit = DefaultSpanLimit
	}
	return &Tracer{limit: limit}
}

// SetNode records the cluster node identity this tracer traces for; every
// span it subsequently opens carries the id. Nil-receiver safe.
func (t *Tracer) SetNode(id int) {
	if t == nil {
		return
	}
	t.node = id
}

// BeginTenant opens a span attributed to one tenant, marking StageAccepted
// at `at`. Negative tenant indices clamp to 0.
func (t *Tracer) BeginTenant(op uint8, write bool, addr uint64, n int64, at sim.Time, tenant int) *Span {
	if t == nil {
		return nil
	}
	if tenant < 0 {
		tenant = 0
	}
	t.opened++
	t.openedT = growCount(t.openedT, tenant)
	t.openedT[tenant]++
	sp := &Span{ID: t.nextID, Op: op, Write: write, Addr: addr, Len: n, Tenant: tenant, Node: t.node}
	t.nextID++
	for i := range sp.Stages {
		sp.Stages[i] = unmarked
	}
	sp.Stages[StageAccepted] = at
	return sp
}

// growCount extends a per-tenant counter slice to cover index i.
func growCount(s []int64, i int) []int64 {
	for len(s) <= i {
		s = append(s, 0)
	}
	return s
}

// End closes a span: marks StageRetired at `at`, latches the final status,
// folds the stage transitions into the histograms, and retains the span if
// the limit allows. Ending a span twice is counted, not fatal — it would
// mean a slot retired twice, which the invariant tests assert never happens.
func (t *Tracer) End(sp *Span, status uint16, at sim.Time) {
	if t == nil || sp == nil {
		return
	}
	if sp.closed {
		t.doubleClose++
		return
	}
	sp.Mark(StageRetired, at)
	sp.Status = status
	sp.closed = true
	t.closed++
	t.closedT = growCount(t.closedT, sp.Tenant)
	t.closedT[sp.Tenant]++
	prev := unmarked
	for st, ts := range sp.Stages {
		if ts == unmarked {
			continue
		}
		if prev != unmarked {
			t.stage[st].Record(ts - prev)
		}
		prev = ts
	}
	if e2e := sp.Stages[StageRetired] - sp.Stages[StageAccepted]; sp.Stages[StageAccepted] != unmarked {
		if sp.Write {
			t.writeE2E.Record(e2e)
		} else {
			t.readE2E.Record(e2e)
		}
	}
	if len(t.spans) < t.limit {
		t.spans = append(t.spans, *sp)
	} else {
		t.dropped++
	}
}

// LateEvent counts a pipeline event that arrived for a slot no live span
// owns — e.g. the fetch of a zombie attempt after a late completion already
// resolved the command.
func (t *Tracer) LateEvent() {
	if t != nil {
		t.late++
	}
}

// Event records a tracer-global annotation (breaker trip, reset, death).
func (t *Tracer) Event(k AnnotKind, at sim.Time) {
	if t != nil {
		t.events = append(t.events, Annot{Kind: k, At: at})
	}
}

// Spans returns a copy of the retained completed spans, in completion order.
// The copy is deep: each span's Annots slice is cloned too, so mutating a
// returned span can never corrupt the tracer's retained state (a shallow
// copy would alias the Annot backing arrays).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	for i := range out {
		if len(out[i].Annots) > 0 {
			annots := make([]Annot, len(out[i].Annots))
			copy(annots, out[i].Annots)
			out[i].Annots = annots
		}
	}
	return out
}

// Events returns a copy of the tracer-global annotations, in time order.
func (t *Tracer) Events() []Annot {
	if t == nil {
		return nil
	}
	out := make([]Annot, len(t.events))
	copy(out, t.events)
	return out
}

// StageHist returns the latency histogram of the transition into stage st
// (nil for a nil tracer or an unknown stage). The histogram aggregates
// reads and writes; use Breakdown over Spans for a per-direction view.
func (t *Tracer) StageHist(st Stage) *Hist {
	if t == nil || st >= NumStages {
		return nil
	}
	return &t.stage[st]
}

// E2E returns the end-to-end (accepted → retired) latency histogram for the
// given direction.
func (t *Tracer) E2E(write bool) *Hist {
	if t == nil {
		return nil
	}
	if write {
		return &t.writeE2E
	}
	return &t.readE2E
}

// Accounting.

// Opened returns spans begun.
func (t *Tracer) Opened() int64 {
	if t == nil {
		return 0
	}
	return t.opened
}

// Closed returns spans ended.
func (t *Tracer) Closed() int64 {
	if t == nil {
		return 0
	}
	return t.closed
}

// OpenedByTenant returns spans begun for tenant i (0 for out-of-range i).
func (t *Tracer) OpenedByTenant(i int) int64 {
	if t == nil || i < 0 || i >= len(t.openedT) {
		return 0
	}
	return t.openedT[i]
}

// ClosedByTenant returns spans ended for tenant i (0 for out-of-range i).
func (t *Tracer) ClosedByTenant(i int) int64 {
	if t == nil || i < 0 || i >= len(t.closedT) {
		return 0
	}
	return t.closedT[i]
}

// Dropped returns completed spans not retained because of the span limit.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// LateEvents returns pipeline events dropped because no live span owned the
// slot they named.
func (t *Tracer) LateEvents() int64 {
	if t == nil {
		return 0
	}
	return t.late
}

// DoubleCloses returns End calls on already-closed spans (always 0 unless a
// retirement invariant broke).
func (t *Tracer) DoubleCloses() int64 {
	if t == nil {
		return 0
	}
	return t.doubleClose
}

// Breakdown aggregates per-stage transition histograms from a span set the
// caller has filtered (typically by direction) — same tiling rule as the
// tracer's live aggregation.
type Breakdown struct {
	Stage [NumStages]Hist
}

// NewBreakdown builds a Breakdown over spans.
func NewBreakdown(spans []Span) *Breakdown {
	b := &Breakdown{}
	for i := range spans {
		prev := unmarked
		for st, ts := range spans[i].Stages {
			if ts == unmarked {
				continue
			}
			if prev != unmarked {
				b.Stage[st].Record(ts - prev)
			}
			prev = ts
		}
	}
	return b
}
