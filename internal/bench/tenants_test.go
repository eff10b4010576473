package bench

import "testing"

// TestTenantIsolationBound pins the tentpole QoS guarantee from both sides:
// under the DRR scheduler a bursty noisy neighbor offering several times its
// weight's fair share leaves the victim's p99 read latency within
// IsolationBound of its solo run, while the FIFO baseline — identical rig,
// arrival-order dispatch — blows through the same bound. If a scheduler
// change weakens isolation (or accidentally cripples the baseline into
// passing), this fails with the measured ratios.
func TestTenantIsolationBound(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the three-rig tenant sweep")
	}
	tb := TenantSweep(0, 0)
	if solo, ok := tb.Value("solo/victim", "p99 µs"); !ok || solo <= 0 {
		t.Fatalf("missing solo victim baseline:\n%s", tb)
	}
	v := func(label, column string) float64 { return value(t, tb, label, column) }
	if vs := v("drr/victim", "p99/solo"); vs <= 0 || vs > IsolationBound {
		t.Errorf("drr victim p99 = %.1f µs, %.2fx solo — want within %.1fx",
			v("drr/victim", "p99 µs"), vs, IsolationBound)
	}
	if vs := v("fifo/victim", "p99/solo"); vs <= IsolationBound {
		t.Errorf("fifo victim p99 = %.1f µs, %.2fx solo — expected the baseline to exceed %.1fx (is the neighbor still saturating?)",
			v("fifo/victim", "p99 µs"), vs, IsolationBound)
	}
	// The neighbor is the aggressor, not a victim: it must have kept the
	// device busy for the whole victim run under both schedulers.
	for _, sched := range []string{"drr", "fifo"} {
		if n := sched + "/noisy"; v(n, "reads") == 0 || v(n, "kIOPS") == 0 {
			t.Errorf("%s noisy neighbor idle:\n%s", sched, tb)
		}
	}
	// Weighted sharing still serves the neighbor: DRR must not starve it
	// relative to the FIFO baseline by more than half.
	if d, f := v("drr/noisy", "kIOPS"), v("fifo/noisy", "kIOPS"); d < f/2 {
		t.Errorf("drr starves the noisy tenant: %.1f kIOPS vs fifo %.1f", d, f)
	}
}
