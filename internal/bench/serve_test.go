package bench

import (
	"reflect"
	"testing"

	"snacc/internal/sim"
	"snacc/internal/workload"
)

// TestRenderServeSweepGolden pins the serve-sweep renderer against
// synthetic rows (regenerate with -update).
func TestRenderServeSweepGolden(t *testing.T) {
	rows := []ServeSweepRow{
		{
			Clients: 10_000, Requests: 4000, Completed: 4000, Dropped: 0,
			GoodMBps: 2236.31, P50Us: 1638.4, P99Us: 3276.8, P999Us: 3288.7,
			PeakConns: 3103, StateMiB: 0.15, PeakQueue: 256, Pauses: 161,
		},
		{
			Clients: 1_000_000, Requests: 4000, Completed: 3000, Dropped: 1000,
			GoodMBps: 1677.2, P50Us: 1638.4, P99Us: 5300.5, P999Us: 8123.9,
			PeakConns: 3770, StateMiB: 3.96, PeakQueue: 256, Pauses: 348,
		},
	}
	checkGolden(t, "servesweep", RenderServeSweep(rows).String())
}

// TestServeSweepLive runs a scaled-down sweep end to end and checks the
// row-level facts the table is meant to convey: everything generated is
// accounted for, the connection-state footprint follows peak connections
// whatever the population, and the sweep is deterministic run to run.
func TestServeSweepLive(t *testing.T) {
	clients := []int{2000, 20_000}
	rows := ServeSweep(clients, 500, nil)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		if r.Clients != clients[i] {
			t.Fatalf("row %d clients %d, want %d", i, r.Clients, clients[i])
		}
		if r.Requests != 500 {
			t.Fatalf("row %d generated %d, want 500", i, r.Requests)
		}
		if r.Completed+r.Dropped != r.Requests {
			t.Fatalf("row %d: completed %d + dropped %d != requests %d",
				i, r.Completed, r.Dropped, r.Requests)
		}
		if r.GoodMBps <= 0 || r.P50Us <= 0 || r.P99Us < r.P50Us || r.P999Us < r.P99Us {
			t.Fatalf("row %d: implausible goodput/latency %+v", i, r)
		}
		if r.PeakConns < 1 || r.PeakConns > clients[i] {
			t.Fatalf("row %d: peak conns %d outside (0, %d]", i, r.PeakConns, clients[i])
		}
	}
	// The table holds 8 B slots, at most half full and doubling, from 16
	// slots: at most max(16, 4·peak) slots whatever the population.
	for i, r := range rows {
		bound := float64(max(16, 4*r.PeakConns)*8) / float64(sim.MiB)
		if r.StateMiB <= 0 || r.StateMiB > bound {
			t.Fatalf("row %d: conn state %.4f MiB for peak %d, want (0, %.4f]", i, r.StateMiB, r.PeakConns, bound)
		}
	}
	if again := ServeSweep(clients, 500, nil); !reflect.DeepEqual(again, rows) {
		t.Fatalf("repeat sweep diverged:\n%+v\n%+v", rows, again)
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
