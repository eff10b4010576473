package bench

import (
	"testing"

	"snacc/internal/sim"
)

// TestCrashSweepBaselineRow pins the zero-rate row: no crash rule means a
// cold recovery ladder and an ordinary sequential-read measurement.
func TestCrashSweepBaselineRow(t *testing.T) {
	tb := CrashSweep([]int64{0}, 8*sim.MiB)
	for _, c := range []string{"crashes", "trips", "resets", "replayed", "abort"} {
		if v := value(t, tb, "none", c); v != 0 {
			t.Errorf("baseline row has recovery activity: %s = %v", c, v)
		}
	}
	if g := value(t, tb, "none", "goodput GB/s"); g <= 0 {
		t.Errorf("baseline goodput = %.3f GB/s, want > 0", g)
	}
}

// TestCrashSweepRecoversEveryWindow: with a working reset path, every
// injected crash must resolve through reset-and-replay — full delivery, no
// aborts — and cost measurable recovery time.
func TestCrashSweepRecoversEveryWindow(t *testing.T) {
	tb := CrashSweep([]int64{0, 8}, 32*sim.MiB)
	v := func(c string) float64 { return value(t, tb, "every 8", c) }
	if v("crashes") == 0 || v("trips") == 0 {
		t.Fatalf("crash-every-8 row crashed nothing:\n%s", tb)
	}
	if v("resets") != v("trips") {
		t.Errorf("resets = %v for %v trips; a healthy reset path succeeds first try", v("resets"), v("trips"))
	}
	if v("replayed") == 0 {
		t.Error("no in-flight commands replayed across crashes")
	}
	if v("abort") != 0 {
		t.Errorf("aborts = %v; recovery must replay every crashed window", v("abort"))
	}
	if v("MTTR µs") <= 0 {
		t.Error("MTTR not accounted")
	}
	if g, base := v("goodput GB/s"), value(t, tb, "none", "goodput GB/s"); g <= 0 || g >= base {
		t.Errorf("crash goodput = %.3f GB/s vs baseline %.3f; recovery episodes must cost bandwidth", g, base)
	}
}

// TestCrashTimelineShowsOutage: the sampled bandwidth must dip during
// recovery episodes and run near full rate outside them. Recovery lasts
// about one sample window, so an episode can straddle two windows — the
// dip is pronounced but need not reach zero.
func TestCrashTimelineShowsOutage(t *testing.T) {
	pts := CrashTimeline(16, 32*sim.MiB, sim.Millisecond)
	if len(pts) == 0 {
		t.Fatal("timeline produced no samples")
	}
	min, max := pts[0].GBps, pts[0].GBps
	for _, p := range pts {
		if p.GBps < min {
			min = p.GBps
		}
		if p.GBps > max {
			max = p.GBps
		}
	}
	if max <= 0 {
		t.Fatal("timeline never saw traffic")
	}
	if min > max*0.85 {
		t.Errorf("no outage dip visible: min %.2f GB/s vs max %.2f", min, max)
	}
}

// TestStripedDegradedDemo pins the degraded-striping demo: member 1 dies,
// its stripes fail, and exactly the survivors' bytes read back.
func TestStripedDegradedDemo(t *testing.T) {
	// 48 MiB across 3 members = 16 stripes each; member 1 is removed at its
	// 8th completion, so some of its writes land but none of its reads do.
	tb := StripedDegraded(3, 48*sim.MiB)
	v := func(c string) float64 { return value(t, tb, "3 SSDs", c) }
	if v("dead member") != 1 {
		t.Fatalf("dead member = %v, want 1", v("dead member"))
	}
	if v("degraded wr") == 0 || v("degraded rd") == 0 {
		t.Errorf("degraded ops = %v wr / %v rd, want both > 0", v("degraded wr"), v("degraded rd"))
	}
	if v("survivor MiB") != 32 {
		t.Errorf("survivor MiB = %v, want the two live members' 32 MiB", v("survivor MiB"))
	}
	if v("write GB/s") <= 0 {
		t.Error("no write goodput recorded")
	}
}
