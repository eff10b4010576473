package bench

import (
	"fmt"
	"slices"
	"strings"

	"snacc/internal/nvme"
	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
)

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

// tenantRig is one URAM streamer fronted by a two-tenant hub.
type tenantRig struct {
	k   *sim.Kernel
	hub *streamer.TenantHub
}

func newTenantRig(fifo bool) *tenantRig {
	r := &tenantRig{k: sim.NewKernel()}
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
	if err := node.Boot(); err != nil {
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
// (victim first, then the neighbor when present), labelled
// "<sched>/<tenant>", with the p99/solo column left 0.
func runTenantRig(sched string, fifo, withNoisy bool, victimOps, noisyOps int) []Row {
	rig := newTenantRig(fifo)
	defer rig.k.Close()
	var vElapsed, nElapsed sim.Time
	rig.k.Spawn("victim", victimLoop(rig.hub.Client(0), victimOps, &vElapsed))
	if withNoisy {
		rig.k.Spawn("noisy", noisyLoop(rig.hub.Client(1), noisyOps, &nElapsed))
	}
	rig.k.Run(0)

	row := func(tenant int, elapsed sim.Time) Row {
		st := rig.hub.Stats()[tenant]
		lat := rig.hub.ReadLatency(tenant)
		var kiops float64
		if elapsed > 0 {
			kiops = float64(st.Reads) / elapsed.Seconds() / 1e3
		}
		return Row{Label: sched + "/" + st.Name, Values: []float64{
			float64(st.Reads), kiops,
			float64(lat.Percentile(50)) / 1e3, float64(lat.Percentile(99)) / 1e3, 0,
		}}
	}
	rows := []Row{row(0, vElapsed)}
	if withNoisy {
		rows = append(rows, row(1, nElapsed))
	}
	return rows
}

// TenantSweep runs the three-rig noisy-neighbor experiment: the victim
// alone (control), then victim + neighbor under the weighted DRR scheduler,
// then the same pair under the FIFO baseline. Each row is one (scheduler,
// tenant) pair: completed reads, thousands of reads per second, the p50 and
// p99 accept→complete read latency in µs, and the victim's p99 relative to
// its solo run ("-" for the neighbor). Rigs are independent and
// deterministic, so the sweep replays byte-identically at any rig-level
// parallelism. victimOps/noisyOps <= 0 select the CLI defaults
// (400 / 2400).
func TenantSweep(victimOps, noisyOps int) Table {
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
	groups := mapRows(len(specs), func(i int) []Row {
		s := specs[i]
		return runTenantRig(s.sched, s.fifo, s.noisy, victimOps, noisyOps)
	})
	t := Table{
		Title: "Tenant sweep — victim 4 KiB reads vs bursty 64 KiB noisy neighbor",
		Columns: slices.Concat([]Column{{"reads", count}},
			cols(tenth, "kIOPS", "p50 µs", "p99 µs"), []Column{{"p99/solo", orDash(ratio)}}),
		Rows: slices.Concat(groups...),
		Notes: []string{
			"solo = victim alone; drr = weighted deficit round robin; fifo = arrival-order baseline",
			fmt.Sprintf("QoS guarantee: drr victim p99 stays within %.1fx of solo (the fifo baseline does not)", IsolationBound),
		},
	}
	soloP99, _ := t.Value("solo/victim", "p99 µs")
	for i, r := range t.Rows {
		if soloP99 > 0 && strings.HasSuffix(r.Label, "/victim") {
			t.Rows[i].Values[4] = r.Values[3] / soloP99
		}
	}
	return t
}
