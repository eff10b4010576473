package snacc

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"snacc/internal/obs"
	"snacc/internal/pcie"
	"snacc/internal/sim"
)

func TestReplayTraceAPI(t *testing.T) {
	ops, err := ParseTrace(strings.NewReader("R 0 1M\nW 1M 1M\nR 2M 1M\n"))
	if err != nil {
		t.Fatal(err)
	}
	f := false
	sys := MustNewSystem(Options{Variant: URAM, Functional: &f})
	res, err := sys.ReplayTrace("api", ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads != 2 || res.Writes != 1 {
		t.Fatalf("op mix %d/%d, want 2/1", res.Reads, res.Writes)
	}
	if got := res.BytesRead + res.BytesWritten; got != 3<<20 {
		t.Fatalf("moved %d bytes, want 3 MiB", got)
	}
}

// TestSpanMonotoneAcrossKernelWorkers extends the span-invariant property
// tests across KernelWorkers values: every traced command must close
// exactly once with monotone stage timestamps, and the span set must match
// the default run exactly.
func TestSpanMonotoneAcrossKernelWorkers(t *testing.T) {
	f := false
	run := func(workers int) []Span {
		sys := MustNewSystem(Options{Variant: URAM, Functional: &f,
			Trace: &TraceOptions{}, KernelWorkers: workers})
		sys.Execute(func(h *Handle) {
			check(t, h.WriteTimed(0, 4<<20))
			check(t, h.ReadTimed(0, 4<<20))
		})
		st := sys.Stats()
		if st.SpansOpened == 0 || st.SpansOpened != st.SpansClosed {
			t.Fatalf("workers=%d: span leak (opened %d, closed %d)",
				workers, st.SpansOpened, st.SpansClosed)
		}
		spans := sys.Spans()
		for _, sp := range spans {
			if !sp.Monotone() {
				t.Errorf("workers=%d: span %d has non-monotone stages %v",
					workers, sp.ID, sp.Stages)
			}
		}
		return spans
	}
	serial := run(1)
	for _, w := range []int{2, 4} {
		if got := run(w); !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d: span set differs from serial run", w)
		}
	}
}

func TestRecordAndFormatTraceAPI(t *testing.T) {
	spec := DefaultWorkload()
	spec.TotalBytes = 1 << 20
	ops, err := RecordTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := FormatTrace(&buf, ops); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ops) {
		t.Fatalf("round trip lost ops: %d vs %d", len(back), len(ops))
	}
}

// TestAccessorsOutOfRange pins the documented empty results of the
// index-taking accessors: an index outside the configured tenants yields
// the zero histogram and an unknown span stage yields nil, never a panic.
func TestAccessorsOutOfRange(t *testing.T) {
	tenants := MustNewSystem(twoTenantOpts())
	traced := MustNewSystem(Options{Trace: &TraceOptions{}})
	zero := func(h LatencyHist) bool { return reflect.DeepEqual(h, LatencyHist{}) }
	cases := []struct {
		name string
		ok   func() bool
	}{
		{"TenantReadLatency(2)", func() bool { return zero(tenants.TenantReadLatency(2)) }},
		{"TenantReadLatency(-1)", func() bool { return zero(tenants.TenantReadLatency(-1)) }},
		{"TenantWriteLatency(2)", func() bool { return zero(tenants.TenantWriteLatency(2)) }},
		{"TenantWriteLatency(-1)", func() bool { return zero(tenants.TenantWriteLatency(-1)) }},
		{"StageLatency(99)", func() bool { return traced.StageLatency(SpanStage(99)) == nil }},
		{"StageLatency(NumStages)", func() bool { return traced.StageLatency(obs.NumStages) == nil }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if !c.ok() {
				t.Fatal("want the documented empty result")
			}
		})
	}
}

// TestClusterTraceHistograms checks that a traced cluster reports its
// latency histograms, merged over the node tracers, alongside its spans:
// each direction's end-to-end count equals its span count.
func TestClusterTraceHistograms(t *testing.T) {
	sys := MustNewSystem(Options{Trace: &TraceOptions{},
		Cluster: &ClusterOptions{Nodes: 3, Replication: 2, Quorum: 2}})
	sys.Execute(func(h *Handle) {
		check(t, h.WriteErr(0, make([]byte, 4096)))
		mustRead(t, h, 0, 4096)
	})
	var writes, reads int64
	for _, sp := range sys.Spans() {
		if sp.Write {
			writes++
		} else {
			reads++
		}
	}
	if writes != 2 || reads != 1 {
		t.Fatalf("spans: %d writes, %d reads; want 2 and 1 (R=2)", writes, reads)
	}
	for _, c := range []struct {
		write bool
		want  int64
	}{{true, writes}, {false, reads}} {
		h := sys.CommandLatency(c.write)
		if h == nil || h.Count() != c.want {
			t.Errorf("CommandLatency(%v) = %v, want %d samples", c.write, h, c.want)
		}
	}
	if h := sys.StageLatency(obs.StageRetired); h == nil || h.Count() != writes+reads {
		t.Errorf("StageLatency(retired) = %v, want %d samples", h, writes+reads)
	}
	if sys.Trace() != nil {
		t.Error("Trace() is non-nil in cluster mode")
	}
}

// TestBoundaryTracePinned pins the staging-buffer-boundary PCIe capture
// (Trace.Boundary) for each variant: a timing-only 32 MiB write followed by
// a 32 MiB read must record exactly these request and inbound-write counts
// at these mean inter-arrival gaps.
func TestBoundaryTracePinned(t *testing.T) {
	want := map[Variant]struct {
		reads, writes     int
		readGap, writeGap sim.Time
	}{
		URAM:        {8192, 1024, 738, 4732},
		OnboardDRAM: {8192, 1024, 938, 4732},
		HostDRAM:    {16384, 2050, 695, 5560},
	}
	f := false
	for _, v := range []Variant{URAM, OnboardDRAM, HostDRAM} {
		sys := MustNewSystem(Options{Variant: v, Functional: &f,
			Trace: &TraceOptions{Boundary: true}})
		sys.Execute(func(h *Handle) {
			check(t, h.WriteTimed(0, 32*sim.MiB))
			check(t, h.ReadTimed(0, 32*sim.MiB))
		})
		tr := sys.BoundaryTrace()
		if tr == nil {
			t.Fatalf("%v: no boundary tracer", v)
		}
		reads, writes := len(tr.OfKind(pcie.TraceReadReq)), len(tr.OfKind(pcie.TraceWriteIn))
		rg, wg := tr.MeanGap(pcie.TraceReadReq), tr.MeanGap(pcie.TraceWriteIn)
		w := want[v]
		if reads != w.reads || writes != w.writes || rg != w.readGap || wg != w.writeGap {
			t.Errorf("%v: reads %d gap %v, writes %d gap %v; want reads %d gap %v, writes %d gap %v",
				v, reads, rg, writes, wg, w.reads, w.readGap, w.writes, w.writeGap)
		}
	}
}
