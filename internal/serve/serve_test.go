package serve

import (
	"runtime"
	"runtime/debug"
	"testing"

	"snacc/internal/ethernet"
	"snacc/internal/sim"
	"snacc/internal/workload"
)

// stubLane is a fixed-latency storage model: completions return in issue
// order per direction (the Lane contract) after a configurable service
// delay, so tests dial the storage side anywhere from instant to
// pathologically slow without standing up the full streamer stack.
type stubLane struct{ delay sim.Time }

func (l stubLane) ReadErr(*sim.Proc, uint64, int64) ([]byte, error) { return nil, nil }
func (l stubLane) WriteErr(*sim.Proc, uint64, int64, []byte) error  { return nil }
func (l stubLane) ReadAsync(*sim.Proc, uint64, int64)               {}
func (l stubLane) WriteAsync(*sim.Proc, uint64, int64, []byte)      {}
func (l stubLane) DrainRead(p *sim.Proc) (int64, error)             { p.Sleep(l.delay); return 0, nil }
func (l stubLane) WaitWriteErr(p *sim.Proc) error                   { p.Sleep(l.delay); return nil }

// stubLanes returns n stub lanes with the given service delay.
func stubLanes(n int, delay sim.Time) []Lane {
	lanes := make([]Lane, n)
	for i := range lanes {
		lanes[i] = stubLane{delay}
	}
	return lanes
}

func fastSpec(ops int64) workload.OpenLoopSpec {
	return workload.OpenLoopSpec{
		Clients:      64,
		RatePerSec:   2e6,
		Ops:          ops,
		ReadFraction: 0.5,
		IOBytes:      4096,
		SpanBytes:    16 * sim.MiB,
		ZipfTheta:    0.9,
		ZipfBuckets:  16,
		CloseProb:    0.1,
		Seed:         7,
	}
}

// runTier builds and runs a single-kernel tier to quiescence.
func runTier(t *testing.T, cfg Config, spec workload.OpenLoopSpec, b []Lane) *Tier {
	t.Helper()
	k := sim.NewKernel()
	tier, err := New(k, cfg, spec, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := tier.Start(0); err != nil {
		t.Fatal(err)
	}
	k.Run(0)
	return tier
}

// runSerial runs a tier to quiescence and returns its report.
func runSerial(t *testing.T, cfg Config, spec workload.OpenLoopSpec, b []Lane) Report {
	t.Helper()
	return runTier(t, cfg, spec, b).Report()
}

// checkConservation asserts the request-accounting invariants every run
// must satisfy once quiescent: every arrival was sent or shed, and every
// sent capsule came back exactly once.
func checkConservation(t *testing.T, r Report) {
	t.Helper()
	if r.Generated != r.Sent+r.Dropped {
		t.Fatalf("conservation: generated %d != sent %d + dropped %d", r.Generated, r.Sent, r.Dropped)
	}
	if r.Sent != r.Completed+r.Failed+r.Unmatched {
		t.Fatalf("conservation: sent %d != completed %d + failed %d + unmatched %d",
			r.Sent, r.Completed, r.Failed, r.Unmatched)
	}
	if r.Malformed != 0 || r.Rejected != 0 || r.Unmatched != 0 {
		t.Fatalf("clean run saw malformed=%d rejected=%d unmatched=%d", r.Malformed, r.Rejected, r.Unmatched)
	}
}

func TestTierEndToEnd(t *testing.T) {
	r := runSerial(t, Config{}, fastSpec(400), stubLanes(1, sim.Microsecond))
	checkConservation(t, r)
	if r.Generated != 400 {
		t.Fatalf("generated %d, want 400", r.Generated)
	}
	if r.Dropped != 0 {
		t.Fatalf("fast backend shed %d arrivals", r.Dropped)
	}
	if r.Completed != 400 {
		t.Fatalf("completed %d, want 400", r.Completed)
	}
	if r.Latency.Count() != 400 {
		t.Fatalf("latency samples %d, want 400", r.Latency.Count())
	}
	if r.BytesRead == 0 || r.BytesWritten == 0 {
		t.Fatalf("goodput bytes read=%d written=%d, want both positive", r.BytesRead, r.BytesWritten)
	}
	if r.BytesRead+r.BytesWritten != 400*4096 {
		t.Fatalf("goodput %d bytes, want %d", r.BytesRead+r.BytesWritten, 400*4096)
	}
	if r.GoodputMBps() <= 0 {
		t.Fatalf("goodput rate %.1f", r.GoodputMBps())
	}
	if r.PeakConns == 0 || r.PeakConns > 64 {
		t.Fatalf("peak conns %d outside (0, 64]", r.PeakConns)
	}
	if r.Opens == 0 || r.Closes == 0 {
		t.Fatalf("churn: opens=%d closes=%d, want both positive", r.Opens, r.Closes)
	}
	if r.ConnStateBytes <= 0 {
		t.Fatalf("conn state bytes %d", r.ConnStateBytes)
	}
	if r.Elapsed <= 0 {
		t.Fatalf("elapsed %v", r.Elapsed)
	}
}

// overload is a tier whose backend is orders of magnitude slower than the
// arrival rate, so pause frames fire and the client sheds.
func overload() (Config, workload.OpenLoopSpec, []Lane) {
	spec := workload.OpenLoopSpec{
		Clients:      256,
		RatePerSec:   1e8, // ~10 ns between arrivals: hopeless overload
		Ops:          4000,
		ReadFraction: 0.5,
		IOBytes:      512,
		SpanBytes:    16 * sim.MiB,
		ZipfTheta:    0.9,
		ZipfBuckets:  16,
		Seed:         11,
	}
	ecfg := ethernet.DefaultConfig()
	ecfg.RxFIFOBytes = 64 * sim.KiB
	cfg := Config{
		DispatchDepth: 32,
		DispatchBatch: 8,
		FrameBatch:    1, // one capsule per frame, so the tx queue meters capsules
		ClientBacklog: 128,
		LaneWindow:    4,
		Ethernet:      ecfg,
	}
	return cfg, spec, stubLanes(1, 100*sim.Microsecond)
}

// TestBackpressureBounds is the tier's load-shedding invariant: with a
// backend orders of magnitude slower than the arrival rate, the dispatch
// queue and the connection table stay under their configured bounds, pause
// frames actually fire, and the overload is shed at the open-loop client —
// counted as drops — instead of buffered without limit. Runs under -race
// via the Makefile's race target.
func TestBackpressureBounds(t *testing.T) {
	cfg, spec, slow := overload()
	r := runSerial(t, cfg, spec, slow)
	if r.Generated != r.Sent+r.Dropped {
		t.Fatalf("conservation: generated %d != sent %d + dropped %d", r.Generated, r.Sent, r.Dropped)
	}
	if r.Sent != r.Completed+r.Failed+r.Unmatched {
		t.Fatalf("conservation: sent %d != completed %d + failed %d + unmatched %d",
			r.Sent, r.Completed, r.Failed, r.Unmatched)
	}
	if r.PeakDispatch > r.DispatchCap {
		t.Fatalf("dispatch queue peaked at %d, bound %d", r.PeakDispatch, r.DispatchCap)
	}
	if r.PeakConns > r.ConnCapacity {
		t.Fatalf("connection table peaked at %d, capacity %d", r.PeakConns, r.ConnCapacity)
	}
	if r.PausesSent == 0 {
		t.Fatal("overload never tripped a pause frame")
	}
	if r.PausesHonored == 0 {
		t.Fatal("client never honored a pause")
	}
	if r.Dropped == 0 {
		t.Fatal("overload shed nothing — backlog must have grown unboundedly")
	}
	if r.FramesDropped != 0 {
		t.Fatalf("%d frames dropped in the MACs — shedding must happen above the link", r.FramesDropped)
	}
}

// TestDrainLeavesNothingInflight: once a run quiesces, every connection
// still open has had each of its requests answered — on a clean run and
// on an overloaded one that sheds at the client.
func TestDrainLeavesNothingInflight(t *testing.T) {
	cfg, spec, slow := overload()
	for _, tc := range []struct {
		name string
		tier *Tier
	}{
		{"clean", runTier(t, Config{}, fastSpec(400), stubLanes(1, sim.Microsecond))},
		{"shedding", runTier(t, cfg, spec, slow)},
	} {
		tier := tc.tier
		open := 0
		for _, s := range tier.table.slots {
			if s.key == 0 {
				continue
			}
			open++
			if s.inflight != 0 {
				t.Errorf("%s: client %d has %d requests in flight at drain", tc.name, s.key-1, s.inflight)
			}
		}
		if open == 0 || open != tier.table.Occupancy() {
			t.Errorf("%s: %d open slots, occupancy %d, want equal and positive", tc.name, open, tier.table.Occupancy())
		}
	}
}

// TestTierAllocsPerRequest pins the tier's steady-state allocation cost:
// the difference between a long and a short run, per extra request, so
// set-up does not count. At this load every request and every response
// rides its own frame. The tier recycles frame buffers, so what is left is
// the Ethernet MAC's one delivery closure per frame: 2 allocations per
// request (4 when each frame allocated its own buffer).
func TestTierAllocsPerRequest(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector's instrumentation allocates")
	}
	const budget = 2.5
	mallocs := func(ops int64) uint64 {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		r := runSerial(t, Config{}, fastSpec(ops), stubLanes(1, sim.Microsecond))
		runtime.ReadMemStats(&m1)
		checkConservation(t, r)
		return m1.Mallocs - m0.Mallocs
	}
	const short, long = 1000, 5000
	perReq := float64(int64(mallocs(long))-int64(mallocs(short))) / (long - short)
	if perReq > budget {
		t.Errorf("a served request allocates %.2f times, budget %.1f", perReq, budget)
	}
	t.Logf("%.2f allocs per served request (budget %.1f)", perReq, budget)
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestTierDeterministic pins the determinism contract: the same spec run
// twice yields bit-identical reports (Report is comparable, so == covers
// every field including the latency histogram).
func TestTierDeterministic(t *testing.T) {
	spec := fastSpec(300)
	b := stubLanes(1, 2*sim.Microsecond)
	first := runSerial(t, Config{}, spec, b)
	checkConservation(t, first)
	if again := runSerial(t, Config{}, spec, b); again != first {
		t.Fatalf("repeat run diverged:\n%+v\n%+v", first, again)
	}
}

// TestTierTenantLanes routes a multi-tenant spec across one lane per
// tenant.
func TestTierTenantLanes(t *testing.T) {
	spec := fastSpec(300)
	spec.Tenants = 4
	r := runSerial(t, Config{}, spec, stubLanes(4, sim.Microsecond))
	checkConservation(t, r)
	if r.Completed != 300 {
		t.Fatalf("completed %d, want 300", r.Completed)
	}
}

func TestTierConfigErrors(t *testing.T) {
	k := sim.NewKernel()
	good := fastSpec(10)
	b := stubLanes(1, 0)

	if _, err := New(k, Config{}, good, nil); err == nil {
		t.Fatal("no lanes accepted")
	}
	multi := good
	multi.Tenants = 4
	if _, err := New(k, Config{}, multi, b); err == nil {
		t.Fatal("4 tenants over 1 lane accepted")
	}
	bad := good
	bad.Clients = 0
	if _, err := New(k, Config{}, bad, b); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := New(k, Config{DispatchBatch: 99, DispatchDepth: 8}, good, b); err == nil {
		t.Fatal("batch > depth accepted")
	}
	if _, err := New(k, Config{DispatchDepth: -1}, good, b); err == nil {
		t.Fatal("negative depth accepted")
	}

	tier, err := New(k, Config{}, good, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := tier.Start(0); err != nil {
		t.Fatal(err)
	}
	if err := tier.Start(0); err == nil {
		t.Fatal("double Start accepted")
	}
	k.Run(0)
}
