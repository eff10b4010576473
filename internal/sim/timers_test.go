package sim

import (
	"fmt"
	"strings"
	"testing"
)

// timerModelRun is what one run of the randomized timer model observed.
type timerModelRun struct {
	log       []string // executed callbacks, "label@time", in execution order
	armSeq    []uint64 // sequence number each timer took when armed, by id
	executed  uint64
	deadFired int // After-built timers that found their work retired
	end       Time
}

// runTimerModel drives one seeded schedule that interleaves plain events
// (zero delay included) with timers on two queues of different delays,
// retiring random timers as it goes. With useTimers it builds the timers
// from Timers; without, from After plus a liveness check that makes a
// retired timer a no-op.
func runTimerModel(seed uint64, useTimers bool) timerModelRun {
	k := NewKernel()
	rng := NewRand(seed)
	var r timerModelRun
	var retired []bool
	budget := 300
	delays := [2]Time{7, 30}
	var queues [2]*Timers[int]
	var act func()
	fire := func(id int) {
		r.log = append(r.log, fmt.Sprintf("t%d@%d", id, k.Now()))
		act()
	}
	live := func(id int) bool { return !retired[id] }
	if useTimers {
		for i, d := range delays {
			queues[i] = NewTimers(k, d, live, fire)
		}
	}
	arm := func(q int) {
		id := len(retired)
		retired = append(retired, false)
		if useTimers {
			queues[q].Arm(id)
		} else {
			k.After(delays[q], func() {
				if !live(id) {
					r.deadFired++
					return
				}
				fire(id)
			})
		}
		r.armSeq = append(r.armSeq, k.seq)
	}
	events := 0
	act = func() {
		for n := rng.Intn(4); n > 0 && budget > 0; n-- {
			budget--
			switch op := rng.Intn(6); {
			case op < 2:
				arm(op)
			case op < 4:
				// Retire a random timer; most retire before they fire,
				// some after (a no-op), as watchdogs do.
				if len(retired) > 0 {
					retired[rng.Intn(len(retired))] = true
				}
			default:
				id := events
				events++
				k.After(Time(rng.Intn(12)), func() {
					r.log = append(r.log, fmt.Sprintf("e%d@%d", id, k.Now()))
					act()
				})
			}
		}
	}
	for i := 0; i < 5; i++ {
		k.At(Time(3*i), func() {
			r.log = append(r.log, fmt.Sprintf("r%d@%d", i, k.Now()))
			act()
		})
	}
	r.end = k.Run(0)
	r.executed = k.EventsExecuted()
	return r
}

// TestTimersMatchAfter checks Timers against the After-built schedule it
// replaces: live timers fire at the same times, with the same sequence
// numbers, in the same interleaving with plain events; a retired timer adds
// no executed event, and the clock stops at the last event that ran.
func TestTimersMatchAfter(t *testing.T) {
	dead, fired, ran := 0, 0, 0
	for seed := uint64(1); seed <= 40; seed++ {
		got := runTimerModel(seed, true)
		want := runTimerModel(seed, false)
		if len(got.log) != len(want.log) {
			t.Fatalf("seed %d: %d callbacks ran, want %d", seed, len(got.log), len(want.log))
		}
		for i := range want.log {
			if got.log[i] != want.log[i] {
				t.Fatalf("seed %d: callback %d is %s, want %s", seed, i, got.log[i], want.log[i])
			}
		}
		for id := range want.armSeq {
			if got.armSeq[id] != want.armSeq[id] {
				t.Fatalf("seed %d: timer %d armed with seq %d, After took %d", seed, id, got.armSeq[id], want.armSeq[id])
			}
		}
		if got.executed != want.executed-uint64(want.deadFired) {
			t.Fatalf("seed %d: %d events executed, want %d (%d less %d retired timers)",
				seed, got.executed, want.executed-uint64(want.deadFired), want.executed, want.deadFired)
		}
		var last Time
		if n := len(got.log); n > 0 {
			fmt.Sscanf(got.log[n-1][strings.LastIndexByte(got.log[n-1], '@')+1:], "%d", &last)
		}
		if got.end != last {
			t.Fatalf("seed %d: clock ended at %v, last callback ran at %v", seed, got.end, last)
		}
		dead += want.deadFired
		ran += len(got.log)
		for _, s := range got.log {
			if s[0] == 't' {
				fired++
			}
		}
	}
	t.Logf("%d callbacks ran, %d of them live timers; %d retired timers dropped", ran, fired, dead)
	if dead == 0 || fired == 0 {
		t.Fatalf("model exercised %d retired and %d live timers; want both", dead, fired)
	}
}

// TestTimersRetiredNeverMoveClock pins the drain contract: a retired timer
// neither runs nor carries the clock to its deadline, with or without a
// horizon, and one that retires while the kernel waits on a horizon is
// dropped when it would have come due.
func TestTimersRetiredNeverMoveClock(t *testing.T) {
	k := NewKernel()
	retired := map[int]bool{}
	ran := 0
	tm := NewTimers(k, 50, func(id int) bool { return !retired[id] }, func(int) { ran++ })
	k.At(10, func() {
		tm.Arm(1)
		tm.Arm(2)
	})
	k.At(20, func() { retired[1] = true })
	if end := k.Run(30); end != 30 {
		t.Fatalf("Run(30) ended at %v", end)
	}
	retired[2] = true
	if end := k.Run(0); end != 30 {
		t.Fatalf("clock moved to %v past the last event at 30", end)
	}
	if ran != 0 || k.EventsExecuted() != 2 || tm.q.Len() != 0 {
		t.Fatalf("ran %d timers, executed %d events, %d timers pending; want 0, 2, 0",
			ran, k.EventsExecuted(), tm.q.Len())
	}
	// A live timer due past the horizon waits for the next Run.
	k.At(40, func() { tm.Arm(3) })
	if end := k.Run(60); end != 60 || ran != 0 {
		t.Fatalf("Run(60) ended at %v with %d timers run", end, ran)
	}
	if end := k.Run(0); end != 90 || ran != 1 {
		t.Fatalf("Run(0) ended at %v with %d timers run; want 90, 1", end, ran)
	}
}

// TestTimersArmDropsRetiredHead checks that arming drops retired timers at
// the head, so a queue whose work retires in order stays short.
func TestTimersArmDropsRetiredHead(t *testing.T) {
	k := NewKernel()
	var retired []bool
	tm := NewTimers(k, 1000, func(id int) bool { return !retired[id] }, func(int) {})
	for i := 0; i < 100; i++ {
		retired = append(retired, false)
		tm.Arm(i)
		if i > 0 {
			retired[i-1] = true
		}
	}
	if n := tm.q.Len(); n != 2 {
		t.Fatalf("%d timers pending, want 2 (the live one and the one retired since the last Arm)", n)
	}
	k.Run(0)
	if k.EventsExecuted() != 1 {
		t.Fatalf("executed %d events, want the one live timer", k.EventsExecuted())
	}
}

// TestTimersSteadyStateAllocs checks that arming, dropping and firing
// timers, and running ready events, allocate nothing once the queues have
// grown to their high-water mark.
func TestTimersSteadyStateAllocs(t *testing.T) {
	k := NewKernel()
	fired := 0
	tm := NewTimers(k, 100, func(id int) bool { return id%2 == 0 }, func(int) { fired++ })
	nop := func() {}
	cycle := func() {
		for i := 0; i < 64; i++ {
			tm.Arm(i)
			k.After(0, nop)
			k.After(Time(i), nop)
		}
		k.Run(0)
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("%.1f allocs per arm/expire cycle, want 0", allocs)
	}
	// AllocsPerRun runs cycle once more than asked, to warm up.
	if want := 52 * 32; fired != want {
		t.Fatalf("%d timers fired, want %d", fired, want)
	}
}
