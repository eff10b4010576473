package sim

import (
	"strings"
	"testing"
	"testing/quick"
)

// TestKernelEventOrdering pins the tie-break every model relies on: events
// run in timestamp order, and events at one timestamp in the order they
// were scheduled, including those an event schedules for its own
// timestamp, which run after every same-time event queued before them.
func TestKernelEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []string
	add := func(s string) func() { return func() { got = append(got, s) } }
	k.At(20, add("a"))
	k.At(10, func() {
		got = append(got, "first")
		k.At(20, add("c"))
		k.At(10, add("now2"))
	})
	k.At(20, add("b"))
	k.At(10, add("now1"))
	k.Spawn("p", func(p *Proc) {
		got = append(got, "p")
		p.Sleep(20)
		got = append(got, "p20")
	})
	k.Run(0)
	want := "p,first,now1,now2,a,b,p20,c"
	if s := strings.Join(got, ","); s != want {
		t.Fatalf("order %q, want %q", s, want)
	}
	if k.Now() != 20 {
		t.Fatalf("Now() = %v, want 20", k.Now())
	}

	// Events scheduled for the current time wait in the ready FIFO behind
	// every heap event and timer due now: those were scheduled before the
	// clock got here, the heap event at 15 even after the timer was armed.
	k = NewKernel()
	got = nil
	tm := NewTimers(k, 10, func(string) bool { return true }, func(s string) { got = append(got, s) })
	k.At(15, func() {
		got = append(got, "heap1")
		k.At(15, add("ready1"))
		k.After(0, func() {
			got = append(got, "ready2")
			k.At(15, add("ready3"))
		})
	})
	k.At(5, func() {
		tm.Arm("timer")
		k.At(15, add("heap2"))
	})
	k.At(15, add("heap0"))
	k.Run(0)
	want = "heap1,heap0,timer,heap2,ready1,ready2,ready3"
	if s := strings.Join(got, ","); s != want {
		t.Fatalf("same-time order %q, want %q", s, want)
	}

	// The horizon still holds: ready events at now run, what they schedule
	// past the horizon waits for the next Run.
	got = nil
	k.At(k.Now(), func() {
		got = append(got, "ready")
		k.After(10, add("later"))
	})
	if end := k.Run(20); end != 20 || strings.Join(got, ",") != "ready" {
		t.Fatalf("Run(20) ended at %v having run %v", end, got)
	}
	if end := k.Run(0); end != 25 || strings.Join(got, ",") != "ready,later" {
		t.Fatalf("Run(0) ended at %v having run %v", end, got)
	}

	// A blocking process steps the kernel on its own stack (Proc.yield).
	// Plain callbacks, a timer and Sleep(0) tokens due before, at and after
	// its wake, and another process's resume, run in the same order and
	// count the same as when Run dispatched every resume: q takes its own
	// resume at 7 inline, but stops at p's resume at 10; p takes its
	// Sleep(0) at 10 inline behind the callbacks queued ahead of it.
	k2 := NewKernel()
	got = nil
	add2 := func(s string) func() { return func() { got = append(got, s) } }
	tm2 := NewTimers(k2, 10, func(string) bool { return true }, func(s string) { got = append(got, s) })
	k2.Spawn("p", func(p *Proc) {
		got = append(got, "p0")
		tm2.Arm("timer10")
		k2.At(10, func() {
			got = append(got, "cb10a")
			k2.At(10, add2("ready10"))
		})
		p.Sleep(10)
		got = append(got, "p10")
		p.Sleep(0)
		got = append(got, "p10b")
		p.Sleep(20)
		got = append(got, "p30")
	})
	k2.Spawn("q", func(q *Proc) {
		got = append(got, "q0")
		q.Sleep(7)
		got = append(got, "q7")
		q.Sleep(13)
		got = append(got, "q20")
	})
	k2.At(5, func() {
		got = append(got, "cb5")
		k2.At(10, add2("cb10b"))
		k2.At(5, add2("ready5"))
	})
	if end := k2.Run(0); end != 30 {
		t.Fatalf("inline Run ended at %v, want 30", end)
	}
	want = "p0,q0,cb5,ready5,q7,timer10,cb10a,p10,cb10b,ready10,p10b,q20,p30"
	if s := strings.Join(got, ","); s != want {
		t.Fatalf("inline order %q, want %q", s, want)
	}
	// 2 spawns, cb5, ready5, q's resumes at 7 and 20, timer10, cb10a,
	// cb10b, ready10, and p's resumes at 10, 10 (Sleep(0)) and 30.
	if n := k2.EventsExecuted(); n != 13 {
		t.Fatalf("inline EventsExecuted = %d, want 13", n)
	}

	// Close drops the heap, the ready FIFO and the timers.
	k.At(k.Now(), add("dropped"))
	k.After(5, add("dropped"))
	tm.Arm("dropped")
	k.Close()
	if k.queue.len() != 0 || k.ready.Len() != 0 || tm.q.Len() != 0 || k.tq != nil {
		t.Fatalf("after Close: %d heap events, %d ready events, %d timers pending",
			k.queue.len(), k.ready.Len(), tm.q.Len())
	}
}

func TestKernelSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(50, func() {})
	})
	k.Run(0)
}

// TestInlineResumeStopsAtHorizon pins that a blocking process steps the
// kernel only up to Run's horizon: callbacks before it run, a wake past it
// stays pending, and Run returns at the horizon.
func TestInlineResumeStopsAtHorizon(t *testing.T) {
	k := NewKernel()
	var got []string
	k.At(40, func() { got = append(got, "cb40") })
	k.Spawn("p", func(p *Proc) {
		p.Sleep(100)
		got = append(got, "p100")
	})
	if end := k.Run(50); end != 50 || strings.Join(got, ",") != "cb40" {
		t.Fatalf("Run(50) ended at %v having run %v", end, got)
	}
	if n := k.EventsExecuted(); n != 2 {
		t.Fatalf("EventsExecuted = %d after Run(50), want 2 (spawn, cb40)", n)
	}
	if end := k.Run(0); end != 100 || strings.Join(got, ",") != "cb40,p100" {
		t.Fatalf("Run(0) ended at %v having run %v", end, got)
	}
	if n := k.EventsExecuted(); n != 3 {
		t.Fatalf("EventsExecuted = %d, want 3", n)
	}
}

func TestKernelHorizon(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.At(10, func() { fired++ })
	k.At(1000, func() { fired++ })
	end := k.Run(100)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if end != 100 {
		t.Fatalf("end = %v, want 100", end)
	}
}

func TestProcSleepAdvancesTime(t *testing.T) {
	k := NewKernel()
	var woke Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		woke = p.Now()
	})
	k.Run(0)
	if woke != 5*Microsecond {
		t.Fatalf("woke at %v, want 5us", woke)
	}
}

func TestProcInterleaving(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(10)
		order = append(order, "a1")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(5)
		order = append(order, "b1")
	})
	k.Run(0)
	want := []string{"a0", "b0", "b1", "a1"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcParkWake(t *testing.T) {
	k := NewKernel()
	var waiter *Proc
	var wokeAt Time
	waiter = k.Spawn("waiter", func(p *Proc) {
		p.Park()
		wokeAt = p.Now()
	})
	k.Spawn("waker", func(p *Proc) {
		p.Sleep(42)
		waiter.Wake()
	})
	k.Run(0)
	if wokeAt != 42 {
		t.Fatalf("woke at %v, want 42", wokeAt)
	}
}

func TestDeadlockDetection(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("parked process with empty queue should panic as deadlock")
		}
	}()
	k := NewKernel()
	k.Spawn("stuck", func(p *Proc) { p.Park() })
	k.Run(0)
}

func TestTransferTime(t *testing.T) {
	cases := []struct {
		n    int64
		bw   float64
		want Time
	}{
		{0, 1e9, 0},
		{1000, 1e9, 1000},            // 1000 B at 1 GB/s = 1us
		{4096, GBps(6.9), 594},       // one 4k page at SSD read speed
		{1 << 20, GBps(12.5), 83886}, // 1 MiB over 100G Ethernet
	}
	for _, c := range cases {
		if got := TransferTime(c.n, c.bw); got != c.want {
			t.Errorf("TransferTime(%d, %g) = %v, want %v", c.n, c.bw, got, c.want)
		}
	}
}

func TestTransferTimeMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		n1, n2 := int64(a%1<<24), int64(b%1<<24)
		if n1 > n2 {
			n1, n2 = n2, n1
		}
		return TransferTime(n1, 1e9) <= TransferTime(n2, 1e9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		5:                "5ns",
		3 * Microsecond:  "3.000us",
		42 * Millisecond: "42.000ms",
		2 * Second:       "2.000s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("(%d).String() = %q, want %q", int64(in), got, want)
		}
	}
}
