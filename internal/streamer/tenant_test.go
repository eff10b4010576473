package streamer_test

import (
	"bytes"
	"errors"
	"testing"

	"snacc/internal/fault"
	"snacc/internal/nvme"
	"snacc/internal/obs"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// tenantHubRig builds a functional single-streamer rig fronted by a hub.
func tenantHubRig(t *testing.T, cfgs []streamer.TenantConfig, opts streamer.HubOptions, mut func(*streamer.Config)) (*sim.Kernel, *streamer.TenantHub, *streamer.Streamer, *nvme.Device) {
	t.Helper()
	k, c, dev := rig(t, streamer.URAM, true, mut)
	hub, err := streamer.NewTenantHub(k, c.Streamer(), cfgs, opts)
	if err != nil {
		t.Fatalf("NewTenantHub: %v", err)
	}
	return k, hub, c.Streamer(), dev
}

func threeTenants(window int64) []streamer.TenantConfig {
	return []streamer.TenantConfig{
		{Name: "alpha", Weight: 1, LBAStart: 0, LBABytes: window},
		{Name: "beta", Weight: 2, LBAStart: uint64(window), LBABytes: window},
		{Name: "gamma", Weight: 3, LBAStart: uint64(2 * window), LBABytes: window},
	}
}

// TestTenantRoundTripAndWindowTranslation: each tenant writes a distinct
// pattern at the SAME tenant-relative address; the windows keep the data
// apart on the device, and each tenant reads back exactly its own bytes.
func TestTenantRoundTripAndWindowTranslation(t *testing.T) {
	const window = 4 * sim.MiB
	k, hub, st, _ := tenantHubRig(t, threeTenants(window), streamer.HubOptions{}, nil)
	const n = 256 * sim.KiB
	finished := 0
	for i := 0; i < hub.Tenants(); i++ {
		i := i
		c := hub.Client(i)
		want := bytes.Repeat([]byte{0xA0 + byte(i)}, int(n))
		k.Spawn("pe", func(p *sim.Proc) {
			if err := c.WriteErr(p, 0, n, want); err != nil {
				t.Errorf("tenant %d write: %v", i, err)
			}
			got, err := c.ReadErr(p, 0, n)
			if err != nil {
				t.Errorf("tenant %d read: %v", i, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("tenant %d read back foreign or corrupt bytes", i)
			}
			finished++
		})
	}
	k.Run(0)
	if finished != hub.Tenants() {
		t.Fatalf("only %d/%d tenants finished", finished, hub.Tenants())
	}
	// All three tenants wrote the same relative address; the device must
	// have seen three disjoint windows' worth of traffic.
	if got, want := st.BytesFromPE(), int64(hub.Tenants())*n; got != want {
		t.Errorf("device saw %d write bytes, want %d", got, want)
	}
}

// TestTenantWindowViolationRejected: submissions outside the window (and
// malformed ones) complete with a per-tenant StatusLBAOutOfRange error and
// never touch the device.
func TestTenantWindowViolationRejected(t *testing.T) {
	const window = sim.MiB
	k, hub, st, _ := tenantHubRig(t, threeTenants(window), streamer.HubOptions{}, nil)
	c := hub.Client(1)
	done := false
	k.Spawn("pe", func(p *sim.Proc) {
		cases := []struct {
			addr uint64
			n    int64
		}{
			{uint64(window), 4096},       // starts one past the window end
			{uint64(window) - 512, 4096}, // straddles the boundary
			{0, window + 4096},           // longer than the window
			{100, 4096},                  // misaligned address
			{0, 100},                     // misaligned length
		}
		for _, tc := range cases {
			_, err := c.ReadErr(p, tc.addr, tc.n)
			var ce streamer.CmdError
			if !errors.As(err, &ce) || ce.Status != nvme.StatusLBAOutOfRange {
				t.Errorf("read %d@%#x: err = %v, want CmdError{LBAOutOfRange}", tc.n, tc.addr, err)
			}
			if err := c.WriteErr(p, tc.addr, tc.n, nil); err == nil {
				t.Errorf("write %d@%#x was not rejected", tc.n, tc.addr)
			}
		}
		// In-window traffic still flows after the rejections.
		if err := c.WriteErr(p, 0, 4096, nil); err != nil {
			t.Errorf("in-window write after rejections: %v", err)
		}
		done = true
	})
	k.Run(0)
	if !done {
		t.Fatal("PE never finished")
	}
	stats := hub.Stats()[1]
	if stats.Rejected != 10 {
		t.Errorf("Rejected = %d, want 10", stats.Rejected)
	}
	// Rejections never reach the backend: only the one valid write did.
	if st.BytesFromPE() != 4096 {
		t.Errorf("device saw %d write bytes, want 4096", st.BytesFromPE())
	}
	if st.BytesToPE() != 0 {
		t.Errorf("device delivered %d read bytes, want 0", st.BytesToPE())
	}
}

// TestTenantDRRWeightedShares: two saturating tenants with weights 1 and 3
// should see dispatched bytes roughly proportional to their weights while
// both are backlogged.
func TestTenantDRRWeightedShares(t *testing.T) {
	const window = 32 * sim.MiB
	cfgs := []streamer.TenantConfig{
		{Name: "light", Weight: 1, LBAStart: 0, LBABytes: window, MaxInflight: 16},
		{Name: "heavy", Weight: 3, LBAStart: uint64(window), LBABytes: window, MaxInflight: 16},
	}
	k, hub, _, _ := tenantHubRig(t, cfgs, streamer.HubOptions{}, nil)
	const ops, ioBytes = 96, 64 * sim.KiB
	var doneAt [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		c := hub.Client(i)
		k.Spawn("pe", func(p *sim.Proc) {
			for j := 0; j < ops; j++ {
				c.ReadAsync(p, uint64(int64(j)*ioBytes%window), ioBytes)
			}
			for j := 0; j < ops; j++ {
				c.ConsumeRead(p)
			}
			doneAt[i] = p.Now()
		})
	}
	// With equal demand and a shared submission window, the weight-3
	// tenant drains its backlog well before the weight-1 tenant: while
	// both are backlogged it receives ~3 of every 4 dispatch slots.
	k.Run(0)
	if doneAt[1] >= doneAt[0] {
		t.Errorf("weight-3 tenant finished at %v, weight-1 at %v; want heavy first", doneAt[1], doneAt[0])
	}
	stats := hub.Stats()
	for i, s := range stats {
		if s.Reads != ops {
			t.Errorf("tenant %d completed %d reads, want %d", i, s.Reads, ops)
		}
	}
	// And the heavy tenant's mean accept→complete latency must beat the
	// light one's — the weighted share shows up in latency, not only in
	// completion order.
	lightLat, heavyLat := hub.ReadLatency(0), hub.ReadLatency(1)
	if heavyLat.Mean() >= lightLat.Mean() {
		t.Errorf("weight-3 mean latency %v >= weight-1 mean %v", heavyLat.Mean(), lightLat.Mean())
	}
}

// TestTenantRateLimitThrottles: a rate-limited tenant's work is paced at
// its token-bucket rate once the burst is spent.
func TestTenantRateLimitThrottles(t *testing.T) {
	const window = 32 * sim.MiB
	cfgs := []streamer.TenantConfig{{
		Name: "capped", LBAStart: 0, LBABytes: window,
		RateBytesPerSec: 100 * sim.MiB, BurstBytes: sim.MiB,
	}}
	k, hub, _, _ := tenantHubRig(t, cfgs, streamer.HubOptions{}, nil)
	const total = 8 * sim.MiB
	const ioBytes = 512 * sim.KiB
	var finished sim.Time
	c := hub.Client(0)
	k.Spawn("pe", func(p *sim.Proc) {
		for off := int64(0); off < total; off += ioBytes {
			c.ReadAsync(p, uint64(off), ioBytes)
		}
		for off := int64(0); off < total; off += ioBytes {
			c.ConsumeRead(p)
		}
		finished = p.Now()
	})
	k.Run(0)
	// The last dispatch needs the bucket refilled past zero: with a 1 MiB
	// head start (burst) and one borrowed command, 6.5 MiB must refill at
	// 100 MiB/s first, so the run cannot finish before 65 ms.
	minTime := sim.Time(float64(total-sim.MiB-ioBytes) / float64(100*sim.MiB) * float64(sim.Second))
	if finished < minTime {
		t.Errorf("rate-limited run finished at %v, want >= %v", finished, minTime)
	}
	if hub.Stats()[0].Throttled == 0 {
		t.Error("token bucket never throttled")
	}
}

// TestTenantAdmissionCap: MaxInflight bounds the admitted-but-incomplete
// high-water mark no matter how much the tenant floods.
func TestTenantAdmissionCap(t *testing.T) {
	const window = 16 * sim.MiB
	cfgs := []streamer.TenantConfig{{Name: "flood", LBAStart: 0, LBABytes: window, MaxInflight: 4}}
	k, hub, _, _ := tenantHubRig(t, cfgs, streamer.HubOptions{}, nil)
	c := hub.Client(0)
	const ops = 64
	k.Spawn("pe", func(p *sim.Proc) {
		for j := 0; j < ops; j++ {
			c.ReadAsync(p, uint64(j*4096), 4096)
		}
		for j := 0; j < ops; j++ {
			c.ConsumeRead(p)
		}
	})
	k.Run(0)
	s := hub.Stats()[0]
	if s.MaxQueued > 4 {
		t.Errorf("MaxQueued = %d, want <= 4", s.MaxQueued)
	}
	if s.Reads != ops {
		t.Errorf("Reads = %d, want %d", s.Reads, ops)
	}
}

// TestTenantHubValidation: bad tenant configurations are rejected with
// errors, not panics or silent sharing.
func TestTenantHubValidation(t *testing.T) {
	k, c, _ := rig(t, streamer.URAM, false, nil)
	bad := [][]streamer.TenantConfig{
		{}, // no tenants
		{{LBABytes: 0}},
		{{LBABytes: -4096}},
		{{LBABytes: 4096, LBAStart: 100}},
		{{LBABytes: 1000}},
		{{LBABytes: 4096, Weight: -1}},
		{{LBABytes: 4096, RateBytesPerSec: -1}},
		{{LBABytes: 4096, MaxInflight: -1}},
		// Overlapping windows.
		{{LBAStart: 0, LBABytes: 8192}, {LBAStart: 4096, LBABytes: 8192}},
		// Identical windows.
		{{LBAStart: 0, LBABytes: 4096}, {LBAStart: 0, LBABytes: 4096}},
	}
	for i, cfgs := range bad {
		if _, err := streamer.NewTenantHub(k, c.Streamer(), cfgs, streamer.HubOptions{}); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}

// TestTenantIsolationProperty is the satellite property test: random
// per-tenant workloads under fault injection plus one controller crash.
// Invariants: (a) no tenant ever observes bytes from another tenant's LBA
// range, (b) per-tenant span invariants hold (opened == closed, monotone
// stages), and (c) summed per-tenant stats equal the global stats.
func TestTenantIsolationProperty(t *testing.T) {
	const window = 4 * sim.MiB
	k, hub, st, dev := tenantHubRig(t, threeTenants(window), streamer.HubOptions{},
		func(cfg *streamer.Config) {
			crashRecovery(cfg)
			cfg.IOQueues = 4
			cfg.DoorbellBatch = 4
		})
	tr := obs.NewTracer(4096)
	st.SetTracer(tr)
	inj := fault.NewInjector(1234)
	inj.Add(fault.Rule{Name: "read-err", Kind: fault.StatusError, Opcode: nvme.OpRead,
		Probability: 0.02, Status: nvme.StatusInternalError})
	inj.Add(fault.Rule{Name: "write-err", Kind: fault.StatusError, Opcode: nvme.OpWrite,
		Probability: 0.02, Status: nvme.StatusDataTransferError})
	inj.Add(fault.Rule{Name: "lost-cqe", Kind: fault.DropCQE, Opcode: fault.OpAny,
		Probability: 0.01, Count: 4})
	inj.Add(fault.Rule{Name: "crash-once", Kind: fault.CrashCtrl, Opcode: fault.OpAny,
		Nth: 60, Count: 1})
	inj.Attach(dev)
	tags := []byte{0xA1, 0xB2, 0xC3}
	finished := 0
	for i := 0; i < hub.Tenants(); i++ {
		i := i
		c := hub.Client(i)
		tag := tags[i]
		rng := sim.NewRand(uint64(100 + i))
		k.Spawn("pe", func(p *sim.Proc) {
			const ops = 60
			for op := 0; op < ops; op++ {
				n := int64(1+rng.Intn(32)) * 4096
				addr := uint64(rng.Intn(int((window-n)/4096))) * 4096
				if rng.Intn(2) == 0 {
					c.WriteErr(p, addr, n, bytes.Repeat([]byte{tag}, int(n)))
				} else {
					data, err := c.ReadErr(p, addr, n)
					if err != nil {
						continue // faulted reads deliver no payload
					}
					for _, b := range data {
						if b != 0 && b != tag {
							t.Errorf("tenant %d read foreign byte %#x", i, b)
							return
						}
					}
				}
				// Occasionally poke outside the window to exercise the
				// rejection path under load.
				if op%16 == 5 {
					if _, err := c.ReadErr(p, uint64(window), 4096); err == nil {
						t.Errorf("tenant %d out-of-window read succeeded", i)
					}
				}
			}
			finished++
		})
	}
	k.Run(0)
	if finished != hub.Tenants() {
		t.Fatalf("only %d/%d tenants finished", finished, hub.Tenants())
	}
	if st.BreakerTrips() == 0 {
		t.Error("controller crash never tripped the breaker (property run lost its crash)")
	}
	// (b) Span invariants, globally and per tenant.
	if tr.Opened() != tr.Closed() {
		t.Errorf("spans opened %d != closed %d", tr.Opened(), tr.Closed())
	}
	var openedSum, closedSum int64
	for i := 0; i < hub.Tenants(); i++ {
		if o, c := tr.OpenedByTenant(i), tr.ClosedByTenant(i); o != c {
			t.Errorf("tenant %d spans opened %d != closed %d", i, o, c)
		}
		openedSum += tr.OpenedByTenant(i)
		closedSum += tr.ClosedByTenant(i)
	}
	if openedSum != tr.Opened() || closedSum != tr.Closed() {
		t.Errorf("per-tenant span counts (%d/%d) do not sum to global (%d/%d)",
			openedSum, closedSum, tr.Opened(), tr.Closed())
	}
	for _, sp := range tr.Spans() {
		if !sp.Monotone() {
			t.Errorf("span %d (tenant %d) has non-monotone stages", sp.ID, sp.Tenant)
		}
		if sp.Tenant < 0 || sp.Tenant >= hub.Tenants() {
			t.Errorf("span %d has out-of-range tenant %d", sp.ID, sp.Tenant)
		}
	}
	// (c) Per-tenant stats sum to the global counters.
	var bytesRead, bytesWritten, rejected int64
	for _, s := range hub.Stats() {
		bytesRead += s.BytesRead
		bytesWritten += s.BytesWritten
		rejected += s.Rejected
	}
	if bytesRead != st.BytesToPE() {
		t.Errorf("sum of tenant BytesRead %d != streamer BytesToPE %d", bytesRead, st.BytesToPE())
	}
	if bytesWritten != st.BytesFromPE() {
		t.Errorf("sum of tenant BytesWritten %d != streamer BytesFromPE %d", bytesWritten, st.BytesFromPE())
	}
	if rejected == 0 {
		t.Error("property run never exercised the rejection path")
	}
}

// TestTenantHubBackendDies fronts a single Streamer whose controller is
// surprise-removed mid-run with no reset budget. Every tenant op issued
// after the death must fail rather than hang, each tenant's Errors must
// equal the ops it saw fail, and the kernel must drain with nothing left
// outstanding in the hub, the Streamer or the span tracer.
func TestTenantHubBackendDies(t *testing.T) {
	const window = 4 * sim.MiB
	k, hub, st, dev := tenantHubRig(t, threeTenants(window), streamer.HubOptions{},
		func(cfg *streamer.Config) {
			crashRecovery(cfg)
			cfg.MaxResets = 0 // removal is permanent: die on the first trip
		})
	tr := obs.NewTracer(4096)
	st.SetTracer(tr)
	inj := fault.NewInjector(7)
	inj.Add(fault.Rule{Name: "remove", Kind: fault.RemoveCtrl, Opcode: fault.OpAny, Nth: 30, Count: 1})
	inj.Attach(dev)

	finished := 0
	failed := make([]int64, hub.Tenants())
	for i := 0; i < hub.Tenants(); i++ {
		i := i
		c := hub.Client(i)
		rng := sim.NewRand(uint64(200 + i))
		k.Spawn("pe", func(p *sim.Proc) {
			for op := 0; op < 40; op++ {
				n := int64(1+rng.Intn(16)) * 4096
				addr := uint64(rng.Intn(int((window-n)/4096))) * 4096
				dead := st.Dead()
				var err error
				if rng.Intn(2) == 0 {
					err = c.WriteErr(p, addr, n, bytes.Repeat([]byte{byte(0xA1 + i)}, int(n)))
				} else {
					_, err = c.ReadErr(p, addr, n)
				}
				if err != nil {
					failed[i]++
				} else if dead {
					t.Errorf("tenant %d op %d succeeded on a dead backend", i, op)
				}
			}
			finished++
		})
	}
	k.Run(0)
	if finished != hub.Tenants() {
		t.Fatalf("only %d/%d tenants finished", finished, hub.Tenants())
	}
	if !st.Dead() {
		t.Fatal("controller never declared dead; rig lost its fault")
	}
	for i, s := range hub.Stats() {
		if failed[i] == 0 {
			t.Errorf("tenant %d never saw the backend die", i)
		}
		if s.Errors != failed[i] {
			t.Errorf("tenant %d Errors = %d, want %d failed ops", i, s.Errors, failed[i])
		}
		if s.Rejected != 0 {
			t.Errorf("tenant %d: %d rejections for in-window traffic", i, s.Rejected)
		}
		if done := s.Reads + s.Writes; done != s.Dispatched || done != 40 {
			t.Errorf("tenant %d: %d dispatched, %d completed, want 40 each", i, s.Dispatched, done)
		}
	}
	// Every command the Streamer accepted opened a span; each must have
	// closed and left the reorder buffer.
	if tr.Opened() != tr.Closed() || tr.Opened() != st.CommandsRetired() {
		t.Errorf("spans opened %d, closed %d, commands retired %d: want all equal",
			tr.Opened(), tr.Closed(), st.CommandsRetired())
	}
}

// TestTenantAccessorAliasing is the satellite aliasing audit: every exported
// slice-returning accessor must return a copy — mutating the returned value
// must not change what the next call returns.
func TestTenantAccessorAliasing(t *testing.T) {
	const window = sim.MiB
	k, hub, st, _ := tenantHubRig(t, threeTenants(window), streamer.HubOptions{}, nil)
	k.Spawn("pe", func(p *sim.Proc) {
		c := hub.Client(0)
		c.WriteErr(p, 0, 4096, nil)
		c.ReadErr(p, 0, 4096)
	})
	k.Run(0)

	stats := hub.Stats()
	stats[0].BytesRead = -999
	stats[0].Name = "clobbered"
	if got := hub.Stats()[0]; got.BytesRead == -999 || got.Name == "clobbered" {
		t.Error("TenantHub.Stats returns a view over live state")
	}

	hw := st.QueueDepthHighWater()
	for i := range hw {
		hw[i] = -1
	}
	for _, v := range st.QueueDepthHighWater() {
		if v == -1 {
			t.Error("QueueDepthHighWater returns a view over live state")
		}
	}
}

// TestTenantStripedDeadMembersAliasing covers Striped.DeadMembers, the
// accessor named in the audit: the returned slice must be the caller's own.
func TestTenantStripedDeadMembersAliasing(t *testing.T) {
	k, sp, devs := stripedRig(t, 2, false, crashRecovery)
	inj := fault.NewInjector(9)
	inj.Add(fault.Rule{Name: "remove", Kind: fault.RemoveCtrl, Opcode: fault.OpAny, Nth: 2, Count: 1})
	inj.Attach(devs[0])
	k.Spawn("app", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			sp.WriteErr(p, uint64(int64(i)*sim.MiB), sim.MiB, nil)
		}
	})
	k.Run(0)
	dead := sp.DeadMembers()
	if len(dead) == 0 {
		t.Fatal("no member died; rig lost its fault")
	}
	dead[0] = 97
	for _, m := range sp.DeadMembers() {
		if m == 97 {
			t.Error("DeadMembers returns a view over live state")
		}
	}
}
