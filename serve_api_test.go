package snacc

import (
	"strings"
	"testing"

	"snacc/internal/sim"
)

// serveOpts is a small, fast serving workload for the facade tests.
func serveOpts() *ServeOptions {
	return &ServeOptions{
		Clients:   500,
		Requests:  300,
		SpanBytes: 32 * sim.MiB,
		Seed:      9,
	}
}

func TestServeFacade(t *testing.T) {
	sys := MustNewSystem(Options{Serve: serveOpts()})
	rep, err := sys.Serve()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Generated != 300 {
		t.Fatalf("generated %d, want 300", rep.Generated)
	}
	if rep.Generated != rep.Sent+rep.Dropped {
		t.Fatalf("conservation: generated %d != sent %d + dropped %d",
			rep.Generated, rep.Sent, rep.Dropped)
	}
	if rep.Sent != rep.Completed+rep.Failed+rep.Unmatched {
		t.Fatalf("conservation: sent %d != completed %d + failed %d + unmatched %d",
			rep.Sent, rep.Completed, rep.Failed, rep.Unmatched)
	}
	if rep.Completed == 0 || rep.Failed != 0 || rep.Malformed != 0 || rep.Rejected != 0 {
		t.Fatalf("clean run: %+v", rep)
	}
	if rep.GoodputMBps() <= 0 || rep.Latency.Count() != rep.Completed {
		t.Fatalf("goodput %.1f MB/s, %d latency samples for %d completions",
			rep.GoodputMBps(), rep.Latency.Count(), rep.Completed)
	}
	if rep.PeakConns < 1 || rep.PeakConns > 500 {
		t.Fatalf("peak conns %d outside (0, 500]", rep.PeakConns)
	}
	if rep.ConnStateBytes <= 0 {
		t.Fatalf("conn state bytes %d", rep.ConnStateBytes)
	}

	// A system serves once.
	if _, err := sys.Serve(); err == nil || !strings.Contains(err.Error(), "started") {
		t.Fatalf("second Serve: err = %v, want already-started", err)
	}
}

// tenantServeOpts serves serveOpts through a two-tenant hub, one serve lane
// per tenant.
func tenantServeOpts() Options {
	so := serveOpts()
	so.SpanBytes = 16 * sim.MiB // must fit the smaller tenant window
	return Options{
		Tenants: []TenantConfig{
			{Name: "a", Weight: 1, LBAStart: 0, LBABytes: 32 * sim.MiB},
			{Name: "b", Weight: 2, LBAStart: uint64(32 * sim.MiB), LBABytes: 16 * sim.MiB},
		},
		Serve: so,
	}
}

// TestServeFacadeTenants routes the serving tier through the virtualized
// hub: requests are stamped with tenant IDs and dispatched one lane per
// tenant, inside each tenant's LBA window. The report is pinned exactly, so
// a change to the serve lanes or the hub's forwarding cannot shift a single
// event unnoticed.
func TestServeFacadeTenants(t *testing.T) {
	sys := MustNewSystem(tenantServeOpts())
	rep, err := sys.Serve()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Sent || rep.Failed != 0 {
		t.Fatalf("tenant-backed run: completed %d of %d sent, failed %d",
			rep.Completed, rep.Sent, rep.Failed)
	}
	lat := rep.Latency
	rep.Latency = LatencyHist{}
	want := ServeReport{
		Clients: 500, Generated: 300, Sent: 300, Completed: 300,
		BytesRead: 823296, BytesWritten: 405504, Elapsed: 885564,
		PeakDispatch: 1, DispatchCap: 256,
		PeakConns: 231, ConnCapacity: 500, ConnStateBytes: 10192, Opens: 231,
	}
	if rep != want {
		t.Errorf("report:\n got %+v\nwant %+v", rep, want)
	}
	got := [...]sim.Time{sim.Time(lat.Count()), lat.Sum(), lat.Min(), lat.Max(), lat.P50(), lat.P99()}
	if wantLat := [...]sim.Time{300, 46902895, 10805, 307380, 151551, 307380}; got != wantLat {
		t.Errorf("latency count/sum/min/max/p50/p99 = %v, want %v", got, wantLat)
	}
}

// TestServeFacadeWorkersIdentity pins the public-API determinism contract:
// the serving report is identical whether the system runs on the serial
// kernel or with the client fleet in its own shard domain, both on the plain
// Streamer and through the two-tenant hub.
func TestServeFacadeWorkersIdentity(t *testing.T) {
	configs := map[string]Options{
		"plain":   {Serve: serveOpts()},
		"tenants": tenantServeOpts(),
	}
	for name, opts := range configs {
		run := func(workers int) ServeReport {
			opts.KernelWorkers = workers
			sys := MustNewSystem(opts)
			defer sys.Close()
			rep, err := sys.Serve()
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		serial := run(0)
		for _, w := range []int{2, 4} {
			if got := run(w); got != serial {
				t.Fatalf("%s: KernelWorkers=%d report diverged:\nserial: %+v\nworkers: %+v", name, w, serial, got)
			}
		}
	}
}

func TestServeOptionErrors(t *testing.T) {
	if _, err := NewSystem(Options{
		Serve:   &ServeOptions{},
		Tenants: tenantServeOpts().Tenants,
		Cluster: &ClusterOptions{Nodes: 2, Replication: 1, Quorum: 1},
	}); err == nil || !strings.Contains(err.Error(), "incompatible") {
		t.Fatalf("Serve+Tenants+Cluster: err = %v, want incompatible", err)
	}
	bad := serveOpts()
	bad.IOBytes = 1000 // not a multiple of 512
	if _, err := NewSystem(Options{Serve: bad}); err == nil {
		t.Fatal("unaligned IOBytes accepted")
	}
	if _, err := MustNewSystem(Options{}).Serve(); err == nil ||
		!strings.Contains(err.Error(), "Options.Serve") {
		t.Fatalf("Serve without Options.Serve: err = %v", err)
	}
}
