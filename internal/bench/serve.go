package bench

import (
	"fmt"
	"strconv"
	"strings"

	"snacc/internal/ethernet"
	"snacc/internal/nvme"
	"snacc/internal/serve"
	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
	"snacc/internal/workload"
)

// ServeSweepRow is one client-population point of the open-loop serving
// experiment: an RPC client fleet drives the URAM streamer through the
// serving tier over the simulated 100 G link, and the row reports what the
// fleet observed (goodput, latency percentiles, drops) next to what the
// server spent remembering it (connection-table state bytes).
type ServeSweepRow struct {
	Clients   int     // simulated client population
	Requests  int64   // open-loop arrivals generated
	Completed int64   // responses received OK
	Dropped   int64   // arrivals shed at the paused client
	GoodMBps  float64 // end-to-end payload goodput, MB/s
	P50Us     float64 // median due→response latency, µs
	P99Us     float64 // p99 due→response latency, µs
	P999Us    float64 // p99.9 due→response latency, µs
	PeakConns int     // connection-table high-water mark
	StateMiB  float64 // connection-table state bytes, MiB
	PeakQueue int     // dispatch-queue high-water mark
	Pauses    int64   // 802.3x pause frames the server sent
}

// Serve-sweep workload shape: 4 KiB requests, 70% reads, a zipfian hot set,
// 5% session churn, and a burst schedule that multiplies the baseline rate
// 6x for short windows — the overload that makes the pause/shed loop do
// real work.
const (
	serveSpanBytes = 256 * sim.MiB
	serveIOBytes   = int64(4 * sim.KiB)
	serveRate      = 500e3
	serveSeed      = 0x5ac5
)

// DefaultServeClients is the CLI's client-population sweep: 10k, 100k and
// one million simulated clients.
var DefaultServeClients = []int{10_000, 100_000, 1_000_000}

// DefaultServePhases is the burst schedule: 200 µs at the baseline rate,
// then a 50 µs burst at 6x.
var DefaultServePhases = []workload.PhaseSpec{
	{RateScale: 1, Duration: 200 * sim.Microsecond},
	{RateScale: 6, Duration: 50 * sim.Microsecond},
}

// serveSpec builds the open-loop spec for one sweep point.
func serveSpec(clients int, ops int, phases []workload.PhaseSpec) workload.OpenLoopSpec {
	return workload.OpenLoopSpec{
		Clients:      clients,
		RatePerSec:   serveRate,
		Ops:          int64(ops),
		ReadFraction: 0.7,
		IOBytes:      serveIOBytes,
		SpanBytes:    serveSpanBytes,
		ZipfTheta:    0.9,
		ZipfBuckets:  64,
		Phases:       phases,
		CloseProb:    0.05,
		Seed:         serveSeed,
	}
}

// runServeRig builds a full-stack serving rig — platform, NVMe, URAM
// streamer, serving tier over the Ethernet link — runs it to quiescence and
// returns the tier's report. With domain-level workers configured the
// client fleet and the FPGA side run in separate shard domains joined by
// wire-latency edges, exactly like the case study's front end; results are
// byte-identical either way.
func runServeRig(spec workload.OpenLoopSpec, cfg serve.Config) serve.Report {
	k := sim.NewKernel()
	var (
		eng          sim.Engine = k
		cliK         *sim.Kernel
		toSrv, toCli *sim.Edge
	)
	if kernelWorkers > 1 {
		shard := sim.NewShard(kernelWorkers)
		eng = shard
		cliD := shard.AddDomain("clients")
		fpga := shard.AddDomain("fpga")
		k = fpga.Kernel()
		cliK = cliD.Kernel()
		look := ethernet.DefaultConfig().EdgeLookahead()
		toSrv = shard.MustConnect(cliD, fpga, look)
		toCli = shard.MustConnect(fpga, cliD, look)
	}
	defer eng.Close()
	node := tapasco.NewNode(k, tapasco.DefaultU280())
	st := node.AddStreamer(node.AddSSD(nvme.DefaultConfig("ssd0", ssdBAR)), streamer.DefaultConfig("snacc0", 0, streamer.URAM))
	lanes := []serve.Lane{streamer.NewClient(st)}

	var tier *serve.Tier
	var err error
	if cliK != nil {
		tier, err = serve.NewCross(cliK, k, toSrv, toCli, cfg, spec, lanes)
	} else {
		tier, err = serve.New(k, cfg, spec, lanes)
	}
	if err != nil {
		panic(err)
	}

	if err := node.Boot(eng); err != nil {
		panic(err)
	}
	if err := tier.Start(eng.Now()); err != nil {
		panic(err)
	}
	eng.Run(0)
	return tier.Report()
}

// ServeSweep runs the open-loop serving experiment at each client
// population. Zero/nil arguments select the defaults (10k/100k/1M clients,
// 4000 requests, the burst schedule). Rigs shard across the experiment
// engine; rows are deterministic at any parallelism and worker count.
func ServeSweep(clients []int, ops int, phases []workload.PhaseSpec) []ServeSweepRow {
	if len(clients) == 0 {
		clients = DefaultServeClients
	}
	if ops <= 0 {
		ops = 4000
	}
	if phases == nil {
		phases = DefaultServePhases
	}
	return mapRows(len(clients), func(i int) ServeSweepRow {
		rep := runServeRig(serveSpec(clients[i], ops, phases), serve.Config{})
		return ServeSweepRow{
			Clients:   clients[i],
			Requests:  rep.Generated,
			Completed: rep.Completed,
			Dropped:   rep.Dropped,
			GoodMBps:  rep.GoodputMBps(),
			P50Us:     rep.Latency.P50().Seconds() * 1e6,
			P99Us:     rep.Latency.P99().Seconds() * 1e6,
			P999Us:    rep.Latency.P999().Seconds() * 1e6,
			PeakConns: rep.PeakConns,
			StateMiB:  float64(rep.ConnStateBytes) / float64(sim.MiB),
			PeakQueue: rep.PeakDispatch,
			Pauses:    rep.PausesSent,
		}
	})
}

// RenderServeSweep formats the serving-tier sweep.
func RenderServeSweep(rows []ServeSweepRow) Table {
	t := Table{
		Title:   "Serve sweep — open-loop RPC fleet over 100G into the URAM streamer",
		Columns: []string{"reqs", "done", "drop", "MB/s", "p50 µs", "p99 µs", "p999 µs", "conns", "state MiB", "queue", "pauses"},
		Notes: []string{
			"open-loop arrivals: zipfian keys, exponential gaps, burst phase schedule; drops are load shed at the paused client",
			"state MiB is the server's connection-table footprint (32 B array slots + client index)",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, TableRow{
			Label: fmt.Sprintf("%dk clients", r.Clients/1000),
			Cells: []string{
				fmt.Sprintf("%d", r.Requests),
				fmt.Sprintf("%d", r.Completed),
				fmt.Sprintf("%d", r.Dropped),
				fmt.Sprintf("%.1f", r.GoodMBps),
				fmt.Sprintf("%.1f", r.P50Us),
				fmt.Sprintf("%.1f", r.P99Us),
				fmt.Sprintf("%.1f", r.P999Us),
				fmt.Sprintf("%d", r.PeakConns),
				fmt.Sprintf("%.2f", r.StateMiB),
				fmt.Sprintf("%d", r.PeakQueue),
				fmt.Sprintf("%d", r.Pauses),
			},
		})
	}
	return t
}

// ParseServeClients parses the CLI's -clients flag: a comma-separated list
// of positive client populations ("10000,100000,1000000").
func ParseServeClients(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("bench: -clients needs a comma-separated list of positive counts")
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bench: -clients entry %q is not an integer", strings.TrimSpace(p))
		}
		if n < 1 {
			return nil, fmt.Errorf("bench: -clients entry %d must be positive", n)
		}
		out = append(out, n)
	}
	return out, nil
}

// ParseServePhases parses the CLI's -phases flag: comma-separated
// "scale:µs" pairs ("1:200,6:50") describing the burst schedule. An empty
// string selects the default schedule.
func ParseServePhases(s string) ([]workload.PhaseSpec, error) {
	if strings.TrimSpace(s) == "" {
		return DefaultServePhases, nil
	}
	parts := strings.Split(s, ",")
	out := make([]workload.PhaseSpec, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		scaleStr, usStr, ok := strings.Cut(p, ":")
		if !ok {
			return nil, fmt.Errorf("bench: -phases entry %q is not scale:µs", p)
		}
		scale, err := strconv.ParseFloat(scaleStr, 64)
		if err != nil || scale <= 0 {
			return nil, fmt.Errorf("bench: -phases entry %q: scale must be a positive number", p)
		}
		us, err := strconv.ParseFloat(usStr, 64)
		if err != nil || us <= 0 {
			return nil, fmt.Errorf("bench: -phases entry %q: duration must be positive microseconds", p)
		}
		out = append(out, workload.PhaseSpec{
			RateScale: scale,
			Duration:  sim.Time(us * float64(sim.Microsecond)),
		})
	}
	return out, nil
}
