package bench

import (
	"fmt"

	"snacc/internal/nvme"
	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
)

// TenantSweepRow is one (scheduler, tenant) cell of the multi-tenant QoS
// experiment: a paced 4 KiB "victim" shares one URAM streamer with a bursty
// 64 KiB "noisy" neighbor, under the DRR scheduler and under the FIFO
// baseline, against a solo-victim control run.
type TenantSweepRow struct {
	Sched  string  // "solo" (victim alone), "drr", or "fifo"
	Tenant string  // tenant name ("victim" / "noisy")
	Reads  int64   // completed read commands
	KIOPS  float64 // read commands per second, thousands
	P50Us  float64 // median accept→complete read latency, µs
	P99Us  float64 // p99 accept→complete read latency, µs
	VsSolo float64 // victim p99 relative to the solo control (0 for noisy rows)
}

// IsolationBound is the pinned noisy-neighbor guarantee: with the DRR
// scheduler, the victim's p99 read latency under a saturating noisy neighbor
// stays within this factor of its solo p99. The FIFO baseline breaks the
// bound (the victim queues behind the neighbor's whole burst), which is what
// the weighted scheduler exists to prevent. TestTenantIsolationBound pins
// both sides.
const IsolationBound = 4.0

// Tenant-sweep workload shape. The victim issues paced, latency-sensitive
// 4 KiB reads; the noisy neighbor fires 16-command bursts of 64 KiB reads
// every 20 µs — an offered load of ~50 GB/s, more than 4× its weight's fair
// share of the device — throttled only by the hub's admission cap, so its
// backlog always exceeds the dispatch window and the schedulers actually
// arbitrate.
const (
	tenantWindowBytes = 256 * sim.MiB
	victimIOBytes     = int64(4 * sim.KiB)
	victimGap         = 25 * sim.Microsecond
	noisyIOBytes      = int64(64 * sim.KiB)
	noisyBurst        = 16
	noisyDepth        = 32
	noisyGap          = 20 * sim.Microsecond
)

// tenantRig is one URAM streamer fronted by a two-tenant hub, optionally
// wrapped in a single-domain shard so the rig exercises the sharded-kernel
// run path when domain-level workers are configured (results are identical
// either way; the determinism tests sweep both axes).
type tenantRig struct {
	k   *sim.Kernel
	eng sim.Engine
	hub *streamer.TenantHub
}

func newTenantRig(fifo bool) *tenantRig {
	r := &tenantRig{}
	r.k = sim.NewKernel()
	r.eng = r.k
	if kernelWorkers > 1 {
		shard := sim.NewShard(kernelWorkers)
		r.eng = shard
		r.k = shard.AddDomain("fpga").Kernel()
	}
	node := tapasco.NewNode(r.k, tapasco.DefaultU280())
	st := node.AddStreamer(node.AddSSD(nvme.DefaultConfig("ssd0", ssdBAR)), streamer.DefaultConfig("snacc0", 0, streamer.URAM))
	hub, err := streamer.NewTenantHub(r.k, st, []streamer.TenantConfig{
		{Name: "victim", Weight: 1, LBAStart: 0, LBABytes: tenantWindowBytes},
		{Name: "noisy", Weight: 1, LBAStart: uint64(tenantWindowBytes), LBABytes: tenantWindowBytes},
	}, streamer.HubOptions{FIFO: fifo})
	if err != nil {
		panic(err)
	}
	r.hub = hub
	if err := node.Boot(r.eng); err != nil {
		panic(err)
	}
	return r
}

// victimLoop issues ops paced 4 KiB random reads and returns via elapsed.
func victimLoop(c *streamer.Client, ops int, elapsed *sim.Time) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		rnd := sim.NewRand(11)
		slots := int(tenantWindowBytes / victimIOBytes)
		start := p.Now()
		for i := 0; i < ops; i++ {
			addr := uint64(int64(rnd.Intn(slots)) * victimIOBytes)
			c.Read(p, addr, victimIOBytes)
			p.Sleep(victimGap)
		}
		*elapsed = p.Now() - start
	}
}

// noisyLoop fires bursts of 64 KiB reads, keeping up to noisyDepth commands
// outstanding, and returns via elapsed.
func noisyLoop(c *streamer.Client, ops int, elapsed *sim.Time) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		rnd := sim.NewRand(23)
		slots := int(tenantWindowBytes / noisyIOBytes)
		start := p.Now()
		inflight := 0
		for issued := 0; issued < ops; {
			b := noisyBurst
			if b > ops-issued {
				b = ops - issued
			}
			for i := 0; i < b; i++ {
				addr := uint64(int64(rnd.Intn(slots)) * noisyIOBytes)
				c.ReadAsync(p, addr, noisyIOBytes)
			}
			issued += b
			inflight += b
			for inflight > noisyDepth {
				c.ConsumeRead(p)
				inflight--
			}
			p.Sleep(noisyGap)
		}
		for ; inflight > 0; inflight-- {
			c.ConsumeRead(p)
		}
		*elapsed = p.Now() - start
	}
}

// runTenantRig executes one scheduler configuration and returns its rows
// (victim first, then the neighbor when present).
func runTenantRig(sched string, fifo, withNoisy bool, victimOps, noisyOps int) []TenantSweepRow {
	rig := newTenantRig(fifo)
	defer rig.eng.Close()
	var vElapsed, nElapsed sim.Time
	rig.k.Spawn("victim", victimLoop(rig.hub.Client(0), victimOps, &vElapsed))
	if withNoisy {
		rig.k.Spawn("noisy", noisyLoop(rig.hub.Client(1), noisyOps, &nElapsed))
	}
	rig.eng.Run(0)

	row := func(tenant int, elapsed sim.Time) TenantSweepRow {
		st := rig.hub.Stats()[tenant]
		lat := rig.hub.ReadLatency(tenant)
		r := TenantSweepRow{
			Sched:  sched,
			Tenant: st.Name,
			Reads:  st.Reads,
			P50Us:  float64(lat.Percentile(50)) / 1e3,
			P99Us:  float64(lat.Percentile(99)) / 1e3,
		}
		if elapsed > 0 {
			r.KIOPS = float64(st.Reads) / elapsed.Seconds() / 1e3
		}
		return r
	}
	rows := []TenantSweepRow{row(0, vElapsed)}
	if withNoisy {
		rows = append(rows, row(1, nElapsed))
	}
	return rows
}

// TenantSweep runs the three-rig noisy-neighbor experiment: the victim
// alone (control), then victim + neighbor under the weighted DRR scheduler,
// then the same pair under the FIFO baseline. Rigs are independent and
// deterministic, so the sweep replays byte-identically at any rig-level
// parallelism and any kernel worker count. victimOps/noisyOps <= 0 select
// the CLI defaults (400 / 2400).
func TenantSweep(victimOps, noisyOps int) []TenantSweepRow {
	if victimOps <= 0 {
		victimOps = 400
	}
	if noisyOps <= 0 {
		noisyOps = 2400
	}
	specs := []struct {
		sched string
		fifo  bool
		noisy bool
	}{
		{"solo", false, false},
		{"drr", false, true},
		{"fifo", true, true},
	}
	groups := mapRows(len(specs), func(i int) []TenantSweepRow {
		s := specs[i]
		return runTenantRig(s.sched, s.fifo, s.noisy, victimOps, noisyOps)
	})
	var rows []TenantSweepRow
	for _, g := range groups {
		rows = append(rows, g...)
	}
	var soloP99 float64
	for _, r := range rows {
		if r.Sched == "solo" && r.Tenant == "victim" {
			soloP99 = r.P99Us
			break
		}
	}
	for i := range rows {
		if soloP99 > 0 && rows[i].Tenant == "victim" {
			rows[i].VsSolo = rows[i].P99Us / soloP99
		}
	}
	return rows
}

// RenderTenantSweep formats the multi-tenant QoS sweep.
func RenderTenantSweep(rows []TenantSweepRow) Table {
	t := Table{
		Title:   "Tenant sweep — victim 4 KiB reads vs bursty 64 KiB noisy neighbor",
		Columns: []string{"reads", "kIOPS", "p50 µs", "p99 µs", "p99/solo"},
		Notes: []string{
			"solo = victim alone; drr = weighted deficit round robin; fifo = arrival-order baseline",
			fmt.Sprintf("QoS guarantee: drr victim p99 stays within %.1fx of solo (the fifo baseline does not)", IsolationBound),
		},
	}
	for _, r := range rows {
		vs := "-"
		if r.VsSolo > 0 {
			vs = fmt.Sprintf("%.2fx", r.VsSolo)
		}
		t.Rows = append(t.Rows, TableRow{
			Label: r.Sched + "/" + r.Tenant,
			Cells: []string{
				fmt.Sprintf("%d", r.Reads),
				fmt.Sprintf("%.1f", r.KIOPS),
				fmt.Sprintf("%.1f", r.P50Us),
				fmt.Sprintf("%.1f", r.P99Us),
				vs,
			},
		})
	}
	return t
}
