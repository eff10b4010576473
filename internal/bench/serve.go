package bench

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"snacc/internal/nvme"
	"snacc/internal/serve"
	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
	"snacc/internal/workload"
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

// serveSpec is one sweep point's workload: the serving tier's defaults
// (serve.New fills the zero fields) with 5% session churn and the given
// burst schedule.
func serveSpec(clients, ops int, phases []workload.PhaseSpec) workload.OpenLoopSpec {
	return workload.OpenLoopSpec{Clients: clients, Ops: int64(max(ops, 0)), Phases: phases, CloseProb: 0.05}
}

// runServeRig builds a full-stack serving rig — platform, NVMe, URAM
// streamer, serving tier over the Ethernet link — runs it to quiescence and
// returns the tier's report.
func runServeRig(spec workload.OpenLoopSpec) serve.Report {
	k := sim.NewKernel()
	defer k.Close()
	node := tapasco.NewNode(k, tapasco.DefaultU280())
	st := node.AddStreamer(node.AddSSD(nvme.DefaultConfig("ssd0", ssdBAR)), streamer.DefaultConfig("snacc0", 0, streamer.URAM))
	tier, err := serve.New(k, spec, []serve.Lane{streamer.NewClient(st)})
	if err != nil {
		panic(err)
	}
	if err := node.Boot(); err != nil {
		panic(err)
	}
	if err := tier.Start(k.Now()); err != nil {
		panic(err)
	}
	k.Run(0)
	return tier.Report()
}

// ServeSweep runs the open-loop serving experiment at each client
// population: an RPC client fleet drives the URAM streamer through the
// serving tier over the simulated 100 G link. The workload is the serving
// tier's default one (4 KiB requests, 70% reads, a zipfian hot set) with
// 5% session churn and a burst schedule that multiplies the baseline rate
// 6x for short windows — the overload that makes the pause/shed loop do
// real work. Each row reports what the fleet observed — arrivals
// generated, responses received OK, arrivals shed at the paused client,
// payload goodput, due→response latency percentiles — next to what the
// server spent: the connection-table high-water mark and state bytes, the
// dispatch-queue high-water mark and the 802.3x pause frames sent.
// Zero/nil arguments select the defaults (10k/100k/1M clients, 4000
// requests, the burst schedule). Rigs shard across the
// experiment engine; rows are deterministic at any parallelism.
func ServeSweep(clients []int, ops int, phases []workload.PhaseSpec) Table {
	if len(clients) == 0 {
		clients = DefaultServeClients
	}
	if phases == nil {
		phases = DefaultServePhases
	}
	rows := mapRows(len(clients), func(i int) Row {
		rep := runServeRig(serveSpec(clients[i], ops, phases))
		return Row{Label: fmt.Sprintf("%dk clients", clients[i]/1000), Values: []float64{
			float64(rep.Generated), float64(rep.Completed), float64(rep.Dropped),
			rep.GoodputMBps(),
			rep.Latency.P50().Seconds() * 1e6, rep.Latency.P99().Seconds() * 1e6,
			rep.Latency.P999().Seconds() * 1e6,
			float64(rep.PeakConns), float64(rep.ConnStateBytes) / float64(sim.MiB),
			float64(rep.PeakDispatch), float64(rep.PausesSent),
		}}
	})
	return Table{
		Title: "Serve sweep — open-loop RPC fleet over 100G into the URAM streamer",
		Columns: slices.Concat(cols(count, "reqs", "done", "drop"),
			cols(tenth, "MB/s", "p50 µs", "p99 µs", "p999 µs"),
			[]Column{{"conns", count}, {"state MiB", gb}, {"queue", count}, {"pauses", count}}),
		Rows: rows,
		Notes: []string{
			"open-loop arrivals: zipfian keys, exponential gaps, burst phase schedule; drops are load shed at the paused client",
			"state MiB is the server's connection-table footprint (8 B open-addressed slots, at most half full: sized by peak conns, not clients)",
			"p50/p99/p999 are obs.Hist bucket upper bounds (32 sub-buckets per octave, each ≤3.1% wide), not exact order statistics",
		},
	}
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
