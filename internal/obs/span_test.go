package obs

import (
	"testing"

	"snacc/internal/sim"
)

func TestSpanLifecycle(t *testing.T) {
	tr := NewTracer(8)
	sp := tr.BeginTenant(0x02, false, 0x1000, 4096, 10, 0)
	if sp.ID != 0 || sp.Stages[StageAccepted] != 10 {
		t.Fatalf("Begin: id=%d accepted=%v", sp.ID, sp.Stages[StageAccepted])
	}
	sp.Mark(StageBufReady, 12)
	sp.Mark(StageSubmitted, 14)
	sp.Mark(StageDoorbell, 14)
	sp.Mark(StageFetched, 20)
	sp.Mark(StageTransfer, 25)
	sp.Mark(StageCQE, 40)
	tr.End(sp, 0, 45)
	if !sp.closed || sp.Stages[StageRetired] != 45 {
		t.Fatal("End did not close/mark the span")
	}
	if !sp.Monotone() {
		t.Fatal("clean span not monotone")
	}
	if tr.Opened() != 1 || tr.Closed() != 1 {
		t.Fatalf("opened/closed = %d/%d", tr.Opened(), tr.Closed())
	}
	// Post-close marks and annotations are dropped.
	sp.Mark(StageCQE, 1)
	sp.Annotate(AnnotRetry, 1)
	if sp.Stages[StageCQE] != 40 || len(sp.Annots) != 0 {
		t.Fatal("closed span accepted a mark/annotation")
	}
	// Double close is counted, not fatal.
	tr.End(sp, 0, 50)
	if tr.DoubleCloses() != 1 || tr.Closed() != 1 {
		t.Fatalf("double close: %d closed=%d", tr.DoubleCloses(), tr.Closed())
	}
	// Transition histograms tile the span.
	var total sim.Time
	for st := Stage(0); st < NumStages; st++ {
		total += tr.StageHist(st).Sum()
	}
	if total != 45-10 {
		t.Fatalf("stage transitions sum to %v, want 35", total)
	}
	if tr.E2E(false).Count() != 1 || tr.E2E(false).Max() != 35 {
		t.Fatalf("read e2e hist: %v", tr.E2E(false))
	}
}

func TestSpanResubmitClearsDevicePath(t *testing.T) {
	tr := NewTracer(8)
	sp := tr.BeginTenant(0x01, true, 0, 512, 0, 0)
	sp.Mark(StageBufReady, 1)
	sp.Mark(StageSubmitted, 2)
	sp.Mark(StageDoorbell, 2)
	sp.Mark(StageFetched, 5)
	sp.Mark(StageTransfer, 8)
	sp.Annotate(AnnotTimeout, 100)
	sp.Resubmit()
	sp.Mark(StageSubmitted, 101)
	sp.Mark(StageDoorbell, 101)
	// The first attempt's late CQE rescues the command before the second
	// attempt is fetched: fetched/transfer stay unmarked, and the span must
	// still be monotone.
	sp.Mark(StageCQE, 105)
	tr.End(sp, 0, 106)
	if sp.Stages[StageFetched] != unmarked || sp.Stages[StageTransfer] != unmarked {
		t.Fatal("Resubmit did not clear device-path stages")
	}
	if !sp.Monotone() {
		t.Fatalf("resubmitted span not monotone: %v", sp.Stages)
	}
	if len(sp.Annots) != 1 || sp.Annots[0].Kind != AnnotTimeout {
		t.Fatalf("annotations lost: %v", sp.Annots)
	}
}

func TestSpanMonotoneDetectsRegression(t *testing.T) {
	sp := &Span{}
	for i := range sp.Stages {
		sp.Stages[i] = unmarked
	}
	sp.Stages[StageFetched] = 50
	sp.Stages[StageSubmitted] = 90 // out of order
	if sp.Monotone() {
		t.Fatal("Monotone missed a regression")
	}
}

func TestTracerSpanLimitAndNilSafety(t *testing.T) {
	tr := NewTracer(2)
	for i := 0; i < 5; i++ {
		sp := tr.BeginTenant(0x02, false, 0, 512, sim.Time(i), 0)
		tr.End(sp, 0, sim.Time(i+1))
	}
	if len(tr.Spans()) != 2 || tr.Dropped() != 3 {
		t.Fatalf("limit: retained %d dropped %d", len(tr.Spans()), tr.Dropped())
	}
	if tr.Closed() != 5 {
		t.Fatalf("histogram aggregation must continue past the limit: closed=%d", tr.Closed())
	}
	tr.Event(AnnotBreakerTrip, 7)
	if ev := tr.Events(); len(ev) != 1 || ev[0].Kind != AnnotBreakerTrip {
		t.Fatalf("events: %v", ev)
	}

	// A nil tracer and nil span must be inert at every call site.
	var nilTr *Tracer
	sp := nilTr.BeginTenant(0, false, 0, 0, 0, 0)
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	sp.Mark(StageCQE, 1)
	sp.Annotate(AnnotRetry, 1)
	sp.Resubmit()
	sp.SetQueue(3)
	nilTr.End(sp, 0, 1)
	nilTr.LateEvent()
	nilTr.Event(AnnotReset, 1)
	if nilTr.Opened() != 0 || nilTr.Spans() != nil || nilTr.StageHist(StageCQE) != nil || nilTr.E2E(true) != nil {
		t.Fatal("nil tracer leaked state")
	}
}

// TestSpanSetQueue pins the queue annotation: sticky on the live span,
// inert after close.
func TestSpanSetQueue(t *testing.T) {
	tr := NewTracer(4)
	sp := tr.BeginTenant(0x02, false, 0, 512, 0, 0)
	sp.SetQueue(2)
	if sp.Queue != 2 {
		t.Fatalf("Queue = %d, want 2", sp.Queue)
	}
	tr.End(sp, 0, 10)
	sp.SetQueue(7)
	if sp.Queue != 2 {
		t.Fatalf("closed span accepted SetQueue: Queue = %d, want 2", sp.Queue)
	}
}

func TestBreakdown(t *testing.T) {
	tr := NewTracer(8)
	mk := func(write bool, base sim.Time) {
		sp := tr.BeginTenant(0x02, write, 0, 512, base, 0)
		sp.Mark(StageSubmitted, base+2)
		sp.Mark(StageCQE, base+10)
		tr.End(sp, 0, base+11)
	}
	mk(false, 0)
	mk(true, 100)
	spans := tr.Spans()
	var reads []Span
	for _, sp := range spans {
		if !sp.Write {
			reads = append(reads, sp)
		}
	}
	b := NewBreakdown(reads)
	if b.Stage[StageSubmitted].Count() != 1 || b.Stage[StageSubmitted].Max() != 2 {
		t.Fatalf("breakdown submitted: %v", b.Stage[StageSubmitted].String())
	}
	if b.Stage[StageCQE].Max() != 8 || b.Stage[StageRetired].Max() != 1 {
		t.Fatal("breakdown transitions wrong")
	}
}

func TestStageAndAnnotStrings(t *testing.T) {
	if StageAccepted.String() != "accepted" || StageRetired.String() != "retired" {
		t.Fatal("stage names wrong")
	}
	if Stage(200).String() != "stage?" || AnnotKind(200).String() != "annot?" {
		t.Fatal("out-of-range names must not panic")
	}
	if AnnotReplay.String() != "replay" {
		t.Fatal("annot names wrong")
	}
}

// TestTracerTenantCounters: BeginTenant/End maintain per-tenant opened and
// closed counts that sum to the global ones, Begin attributes to tenant 0,
// and negative tenants clamp to 0.
func TestTracerTenantCounters(t *testing.T) {
	tr := NewTracer(8)
	a := tr.BeginTenant(0x02, false, 0, 4096, 1, 0)
	b := tr.BeginTenant(0x02, false, 0, 4096, 2, 2)
	c := tr.BeginTenant(0x01, true, 0, 4096, 3, 0) // tenant 0
	d := tr.BeginTenant(0x01, true, 0, 4096, 4, -7)
	if b.Tenant != 2 || a.Tenant != 0 || c.Tenant != 0 || d.Tenant != 0 {
		t.Fatalf("tenants = %d/%d/%d/%d", a.Tenant, b.Tenant, c.Tenant, d.Tenant)
	}
	if tr.OpenedByTenant(0) != 3 || tr.OpenedByTenant(1) != 0 || tr.OpenedByTenant(2) != 1 {
		t.Fatalf("opened by tenant = %d/%d/%d",
			tr.OpenedByTenant(0), tr.OpenedByTenant(1), tr.OpenedByTenant(2))
	}
	tr.End(a, 0, 10)
	tr.End(b, 0, 11)
	if tr.ClosedByTenant(0) != 1 || tr.ClosedByTenant(2) != 1 {
		t.Fatalf("closed by tenant = %d/%d", tr.ClosedByTenant(0), tr.ClosedByTenant(2))
	}
	var sum int64
	for i := 0; i < 3; i++ {
		sum += tr.OpenedByTenant(i)
	}
	if sum != tr.Opened() {
		t.Fatalf("per-tenant opened sums to %d, global %d", sum, tr.Opened())
	}
	// Out-of-range lookups and nil tracers are safe zeros.
	if tr.OpenedByTenant(-1) != 0 || tr.OpenedByTenant(99) != 0 {
		t.Fatal("out-of-range tenant lookup not zero")
	}
	var nilTr *Tracer
	if nilTr.OpenedByTenant(0) != 0 || nilTr.ClosedByTenant(0) != 0 {
		t.Fatal("nil tracer tenant lookup not zero")
	}
	if sp := nilTr.BeginTenant(0, false, 0, 0, 0, 1); sp != nil {
		t.Fatal("nil tracer BeginTenant returned a span")
	}
	// Tenant survives retirement into the retained copy.
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Tenant != 2 {
		t.Fatalf("retained spans lost tenant attribution: %+v", spans)
	}
}

// TestSpansDeepCopy is the aliasing regression test: mutating a span (and
// its Annots) returned by Spans must not change what the next call returns.
func TestSpansDeepCopy(t *testing.T) {
	tr := NewTracer(8)
	sp := tr.BeginTenant(0x02, false, 0, 4096, 1, 0)
	sp.Annotate(AnnotRetry, 5)
	sp.Annotate(AnnotTimeout, 6)
	tr.End(sp, 0, 10)

	got := tr.Spans()
	got[0].Annots[0].Kind = AnnotDead
	got[0].Annots[1].At = 999
	got[0].Status = 0xFF

	again := tr.Spans()
	if again[0].Annots[0].Kind != AnnotRetry || again[0].Annots[1].At != 6 {
		t.Error("Spans aliases the retained Annots backing array")
	}
	if again[0].Status == 0xFF {
		t.Error("Spans aliases retained span fields")
	}
}

// TestSpanNodeAttribution pins the cluster node identity: spans opened by a
// tracer stamped with SetNode carry the node id through retirement, and the
// nil tracer stays safe.
func TestSpanNodeAttribution(t *testing.T) {
	tr := NewTracer(8)
	tr.SetNode(3)
	sp := tr.BeginTenant(0x02, false, 0, 4096, 1, 0)
	if sp.Node != 3 {
		t.Fatalf("span opened with Node %d, want 3", sp.Node)
	}
	tr.End(sp, 0, 10)
	if got := tr.Spans(); len(got) != 1 || got[0].Node != 3 {
		t.Fatalf("retained span lost node attribution: %+v", got)
	}

	var nilTr *Tracer
	nilTr.SetNode(7) // a nil tracer ignores the identity
}
