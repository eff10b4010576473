package bench

import (
	"fmt"
	"reflect"
	"testing"

	"snacc/internal/sim"
	"snacc/internal/workload"
)

// TestServeSweepLive runs a scaled-down sweep end to end and checks the
// row-level facts the table is meant to convey: everything generated is
// accounted for, the connection-state footprint follows peak connections
// whatever the population, and the sweep is deterministic run to run.
func TestServeSweepLive(t *testing.T) {
	clients := []int{2000, 20_000}
	tb := ServeSweep(clients, 500, nil)
	if len(tb.Rows) != 2 {
		t.Fatalf("got %d rows", len(tb.Rows))
	}
	for i, n := range clients {
		label := fmt.Sprintf("%dk clients", n/1000)
		v := func(column string) float64 { return value(t, tb, label, column) }
		if v("reqs") != 500 {
			t.Fatalf("%s generated %v, want 500", label, v("reqs"))
		}
		if v("done")+v("drop") != v("reqs") {
			t.Fatalf("%s: completed %v + dropped %v != requests %v", label, v("done"), v("drop"), v("reqs"))
		}
		if v("MB/s") <= 0 || v("p50 µs") <= 0 || v("p99 µs") < v("p50 µs") || v("p999 µs") < v("p99 µs") {
			t.Fatalf("%s: implausible goodput/latency %v", label, tb.Rows[i].Values)
		}
		peak := v("conns")
		if peak < 1 || peak > float64(n) {
			t.Fatalf("%s: peak conns %v outside (0, %d]", label, peak, n)
		}
		// The table holds 8 B slots, at most half full and doubling, from
		// 16 slots: at most max(16, 4·peak) slots whatever the population.
		bound := max(16, 4*peak) * 8 / float64(sim.MiB)
		if st := v("state MiB"); st <= 0 || st > bound {
			t.Fatalf("%s: conn state %.4f MiB for peak %v, want (0, %.4f]", label, st, peak, bound)
		}
	}
	if again := ServeSweep(clients, 500, nil); !reflect.DeepEqual(again.Rows, tb.Rows) {
		t.Fatalf("repeat sweep diverged:\n%s\n%s", tb, again)
	}
}

func TestParseServeClients(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		ok   bool
	}{
		{"10000", []int{10000}, true},
		{"10000,100000,1000000", []int{10000, 100000, 1000000}, true},
		{" 500 , 600 ", []int{500, 600}, true},
		{"", nil, false},
		{"   ", nil, false},
		{"10,abc", nil, false},
		{"10,,20", nil, false},
		{"0", nil, false},
		{"-5", nil, false},
		{"10.5", nil, false},
	}
	for _, tc := range cases {
		got, err := ParseServeClients(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseServeClients(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseServeClients(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseServePhases(t *testing.T) {
	cases := []struct {
		in   string
		want []workload.PhaseSpec
		ok   bool
	}{
		{"", DefaultServePhases, true},
		{"1:200", []workload.PhaseSpec{{RateScale: 1, Duration: 200 * sim.Microsecond}}, true},
		{"1:200,6:50", []workload.PhaseSpec{
			{RateScale: 1, Duration: 200 * sim.Microsecond},
			{RateScale: 6, Duration: 50 * sim.Microsecond},
		}, true},
		{"0.5:12.5", []workload.PhaseSpec{{RateScale: 0.5, Duration: sim.Time(12.5 * float64(sim.Microsecond))}}, true},
		{"1", nil, false},
		{"1:", nil, false},
		{":200", nil, false},
		{"0:200", nil, false},
		{"-1:200", nil, false},
		{"1:0", nil, false},
		{"1:-50", nil, false},
		{"abc:200", nil, false},
		{"1:xyz", nil, false},
		{"1:200,,2:50", nil, false},
	}
	for _, tc := range cases {
		got, err := ParseServePhases(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseServePhases(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseServePhases(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// Every accepted shape must survive the workload spec validation the
	// rig applies.
	for _, in := range []string{"", "1:200,6:50", "0.5:12.5"} {
		phases, err := ParseServePhases(in)
		if err != nil {
			t.Fatalf("ParseServePhases(%q): %v", in, err)
		}
		spec := serveSpec(1000, 10, phases)
		if err := spec.Validate(); err != nil {
			t.Errorf("phases %q produce an invalid spec: %v", in, err)
		}
	}
}
