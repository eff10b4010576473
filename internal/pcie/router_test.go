package pcie

import (
	"testing"

	"snacc/internal/sim"
)

type recCompleter struct {
	k      *sim.Kernel
	reads  []uint64
	writes []uint64
}

func (r *recCompleter) CompleteRead(addr uint64, n int64, buf Payload, done func()) {
	r.reads = append(r.reads, addr)
	r.k.After(1, done)
}

func (r *recCompleter) CompleteWrite(addr uint64, n int64, data Payload) {
	r.writes = append(r.writes, addr)
}

func TestRangeRouterDispatch(t *testing.T) {
	k := sim.NewKernel()
	a := &recCompleter{k: k}
	b := &recCompleter{k: k}
	var rr RangeRouter
	rr.AddRange(0x1000, 0x1000, a)
	rr.AddRange(0x8000, 0x2000, b)
	rr.CompleteWrite(0x1800, 16, Payload{})
	rr.CompleteWrite(0x9000, 16, Payload{})
	rr.CompleteRead(0x8000, 8, Payload{}, func() {})
	k.Run(0)
	if len(a.writes) != 1 || a.writes[0] != 0x1800 {
		t.Fatalf("a.writes = %v", a.writes)
	}
	if len(b.writes) != 1 || len(b.reads) != 1 {
		t.Fatalf("b got %v / %v", b.writes, b.reads)
	}
}

func TestRangeRouterRejectsOverlap(t *testing.T) {
	var rr RangeRouter
	rr.AddRange(0x1000, 0x1000, nil)
	defer func() {
		if recover() == nil {
			t.Error("overlapping range accepted")
		}
	}()
	rr.AddRange(0x1800, 0x1000, nil)
}

func TestRangeRouterUndecodedPanics(t *testing.T) {
	var rr RangeRouter
	rr.AddRange(0x1000, 0x1000, nil)
	defer func() {
		if recover() == nil {
			t.Error("undecoded address accepted")
		}
	}()
	rr.CompleteWrite(0x5000, 4, Payload{})
}

func TestRangeRouterCrossWindowPanics(t *testing.T) {
	k := sim.NewKernel()
	var rr RangeRouter
	rr.AddRange(0x1000, 0x1000, &recCompleter{k: k})
	rr.AddRange(0x2000, 0x1000, &recCompleter{k: k})
	defer func() {
		if recover() == nil {
			t.Error("window-crossing access accepted")
		}
	}()
	rr.CompleteWrite(0x1ff0, 0x20, Payload{})
}

func TestHostAllocAlignment(t *testing.T) {
	k := sim.NewKernel()
	f := NewFabric(k, DefaultConfig())
	h := NewHost(f, DefaultHostConfig())
	a := h.Alloc(100, 4096)
	b := h.Alloc(100, 4096)
	if a%4096 != 0 || b%4096 != 0 {
		t.Fatalf("allocations not aligned: %#x %#x", a, b)
	}
	if b <= a {
		t.Fatal("allocations overlap")
	}
}

func TestHostAllocChunksNonAdjacent(t *testing.T) {
	k := sim.NewKernel()
	f := NewFabric(k, DefaultConfig())
	h := NewHost(f, DefaultHostConfig())
	chunks := h.AllocChunks(4, 4*sim.MiB)
	for i := 1; i < len(chunks); i++ {
		if chunks[i] == chunks[i-1]+uint64(4*sim.MiB) {
			t.Fatalf("chunks %d and %d adjacent; the guard page is missing", i-1, i)
		}
	}
}

func TestTracerFilterAndLimit(t *testing.T) {
	k := sim.NewKernel()
	tr := NewTracer(k)
	tr.Filter = func(addr uint64, n int64) bool { return addr >= 0x1000 }
	tr.Limit = 2
	tr.record(TraceWriteIn, 0x500, 64) // filtered out
	tr.record(TraceWriteIn, 0x1000, 64)
	tr.record(TraceWriteIn, 0x2000, 64)
	tr.record(TraceWriteIn, 0x3000, 64) // over limit
	if len(tr.Events()) != 2 {
		t.Fatalf("events = %d, want 2", len(tr.Events()))
	}
	tr.Reset()
	if len(tr.Events()) != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestTracerMeanGapAndService(t *testing.T) {
	k := sim.NewKernel()
	tr := NewTracer(k)
	for i := 0; i < 4; i++ {
		k.At(sim.Time(i*100), func() { tr.record(TraceReadReq, 0, 4096) })
		k.At(sim.Time(i*100+30), func() { tr.record(TraceReadCpl, 0, 4096) })
	}
	k.Run(0)
	if g := tr.MeanGap(TraceReadReq); g != 100 {
		t.Fatalf("MeanGap = %v, want 100", g)
	}
	if m := tr.ServiceLatency().Mean(); m != 30 {
		t.Fatalf("service mean = %v, want 30", m)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.record(TraceWriteIn, 0, 1) // must not panic
}

func TestTraceKindString(t *testing.T) {
	if TraceReadReq.String() != "read-req" || TraceReadCpl.String() != "read-cpl" ||
		TraceWriteIn.String() != "write-in" || TraceKind(99).String() != "?" {
		t.Fatal("TraceKind names wrong")
	}
}
