package bench

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/workload"
)

// Scale sizes one pass over the registry. Start from DefaultScale and
// override fields; every entry reads only the fields it needs.
type Scale struct {
	Size    int64                // transfer volume per bandwidth measurement (bytes)
	Images  int                  // case-study stream length (paper: 16384)
	Samples int                  // figure 4c latency samples
	Queues  []int                // I/O queue counts of the multi-queue sweep
	Clients []int                // client populations of the serving sweep
	Phases  []workload.PhaseSpec // burst schedule of the serving sweep
	Cluster [][3]int             // nodes, replication, quorum shapes of the cluster sweep
}

// DefaultScale is the snaccbench default scale.
func DefaultScale() Scale {
	return Scale{
		Size:    256 * sim.MiB,
		Images:  192,
		Samples: 200,
		Queues:  []int{1, 2, 4, 8},
		Clients: DefaultServeClients,
		Phases:  DefaultServePhases,
		Cluster: [][3]int{{3, 2, 1}, {3, 2, 2}, {3, 3, 2}, {4, 2, 1}, {4, 3, 2}, {5, 3, 2}},
	}
}

// Validate rejects a Scale some experiment cannot run at: a transfer
// volume that is not a whole number of MiB, no images or latency samples,
// an I/O queue count outside 1..streamer.MaxIOQueues, a client population
// or burst phase that is not positive, or a cluster shape outside
// 2 <= nodes and 1 <= quorum <= replication <= nodes. The messages name
// the snaccbench flags that set each field.
func (s Scale) Validate() error {
	switch {
	case s.Size < sim.MiB:
		return fmt.Errorf("invalid -size %d (want MiB >= 1)", s.Size/sim.MiB)
	case s.Size%sim.MiB != 0:
		return fmt.Errorf("invalid size %d bytes (want a whole number of MiB)", s.Size)
	case s.Images < 1:
		return fmt.Errorf("invalid -images %d (want >= 1)", s.Images)
	case s.Samples < 1:
		return fmt.Errorf("invalid -samples %d (want >= 1)", s.Samples)
	}
	for _, n := range s.Queues {
		if n < 1 || n > streamer.MaxIOQueues {
			return fmt.Errorf("invalid -queues entry %q (want integers 1..%d)", strconv.Itoa(n), streamer.MaxIOQueues)
		}
	}
	for _, n := range s.Clients {
		if n < 1 {
			return fmt.Errorf("bench: -clients entry %d must be positive", n)
		}
	}
	for i, ph := range s.Phases {
		if !(ph.RateScale > 0) || ph.Duration <= 0 {
			return fmt.Errorf("bench: -phases entry %d needs a positive scale and duration", i+1)
		}
	}
	for _, c := range s.Cluster {
		n, r, q := c[0], c[1], c[2]
		switch {
		case n < 2:
			return fmt.Errorf("invalid -nodes %d (want >= 2)", n)
		case r < 1 || r > n:
			return fmt.Errorf("invalid -replication %d (want 1 <= replication <= nodes=%d)", r, n)
		case q < 1 || q > r:
			return fmt.Errorf("invalid -quorum %d (want 1 <= quorum <= replication=%d)", q, r)
		}
	}
	return nil
}

// Group places an experiment in the evaluation.
type Group int

const (
	Paper     Group = iota // §5 and §6 figures and tables
	Ablation               // §7 ablations
	Extension              // robustness, QoS, serving, cluster and latency sweeps
	Tool                   // diagnostics outside "all"
)

// Experiment is one named entry of the evaluation.
type Experiment struct {
	Name  string // selection name: snaccbench -run <Name>
	Label string // progress line: "running <Label> ..."
	Group Group
	// Bench, when set, is the file an explicit run writes: the first
	// table as JSON, or the detail text of an entry without tables.
	Bench string
	// Run regenerates the experiment's tables; nil for an entry whose
	// whole output is its detail.
	Run func(s Scale) []Table
	// Detail, when set, is what an explicit run prints after the tables:
	// a preformatted block (a timeline, a JSON report), then more tables.
	Detail func(s Scale) (text string, more []Table)
}

// InAll reports whether e belongs to "all".
func (e Experiment) InAll() bool { return e.Group != Tool }

// Selected is an entry Select picked. Named is set when the entry was
// named itself rather than reached through "all"; snaccbench then also
// prints its detail output and writes its BENCH file.
type Selected struct {
	Experiment
	Named bool
}

// Select resolves experiment names, and "all" for every entry in all, to
// the entries they pick, in registry order whatever the order of names.
// An unknown name, or no name, is an error.
func Select(names ...string) ([]Selected, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("no experiment named (want all or a comma-separated list of: %s)", strings.Join(Names(), ", "))
	}
	all, named := false, map[string]bool{}
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "all" {
			all = true
			continue
		}
		if !slices.Contains(Names(), name) {
			return nil, fmt.Errorf("unknown experiment %q (want all or one of: %s)", name, strings.Join(Names(), ", "))
		}
		named[name] = true
	}
	var sel []Selected
	for _, e := range Experiments {
		if named[e.Name] || all && e.InAll() {
			sel = append(sel, Selected{e, named[e.Name]})
		}
	}
	return sel, nil
}

// Names lists every experiment name in registry order.
func Names() []string {
	names := make([]string, len(Experiments))
	for i, e := range Experiments {
		names[i] = e.Name
	}
	return names
}

// Experiments is the evaluation in the order snaccbench prints it.
var Experiments = []Experiment{
	{Name: "fig4a", Label: "figure 4a", Group: Paper, Run: func(s Scale) []Table {
		return []Table{Fig4a(s.Size)}
	}},
	{Name: "fig4b", Label: "figure 4b", Group: Paper, Run: func(s Scale) []Table {
		return []Table{Fig4b(s.Size / 4)}
	}},
	{Name: "fig4c", Label: "figure 4c", Group: Paper, Run: func(s Scale) []Table {
		return []Table{Fig4c(s.Samples)}
	}},
	{Name: "table1", Label: "table 1", Group: Paper, Run: func(Scale) []Table {
		return []Table{Table1()}
	}},
	{Name: "fig6", Label: "figures 6 and 7 (shared case-study runs)", Group: Paper, Run: func(s Scale) []Table {
		fig6, fig7 := Fig6(s.Images)
		return []Table{fig6, fig7}
	}},
	{Name: "qd", Label: "ablation A1 (queue depth)", Group: Ablation, Run: func(s Scale) []Table {
		return []Table{AblationQD([]int{4, 16, 64, 256}, s.Size/8)}
	}},
	{Name: "ooo", Label: "ablation A2 (out-of-order retirement)", Group: Ablation, Run: func(s Scale) []Table {
		return []Table{AblationOOO(s.Size / 8)}
	}},
	{Name: "multissd", Label: "ablation A3 (multi-SSD)", Group: Ablation, Run: func(s Scale) []Table {
		return []Table{AblationMultiSSD([]int{1, 2, 4}, s.Size/2)}
	}},
	{Name: "gen5", Label: "ablation A4 (PCIe 5.0)", Group: Ablation, Run: func(s Scale) []Table {
		return []Table{AblationGen5(s.Size)}
	}},
	{Name: "hbm", Label: "ablation A6 (HBM staging)", Group: Ablation, Run: func(s Scale) []Table {
		return []Table{AblationHBM(s.Size)}
	}},
	{Name: "stripedcase", Label: "ablation A7 (striped multi-SSD case study)", Group: Ablation, Run: func(s Scale) []Table {
		return []Table{Fig6Striped([]int{1, 2, 3}, s.Images)}
	}},
	{Name: "dram", Label: "ablation A5 (DRAM controller)", Group: Ablation, Run: func(s Scale) []Table {
		return []Table{AblationDRAM(s.Size)}
	}},
	{Name: "qp", Label: "ablation A9 (queue pairs on one SSD)", Group: Ablation, Run: func(s Scale) []Table {
		return []Table{AblationQP([]int{1, 2, 4}, s.Size/8)}
	}},
	{Name: "mtu", Label: "ablation A8 (Ethernet MTU)", Group: Ablation, Run: func(s Scale) []Table {
		return []Table{AblationMTU([]int64{1500, 4096, 9000}, s.Images)}
	}},
	{Name: "faults", Label: "fault-injection sweep", Group: Extension, Run: func(s Scale) []Table {
		return []Table{FaultSweep([]float64{0, 0.1, 1, 5}, s.Size)}
	}},
	{Name: "crash", Label: "controller-crash sweep", Group: Extension, Bench: "BENCH_crash.json",
		Run: func(s Scale) []Table {
			return []Table{CrashSweep([]int64{0, 64, 16, 4}, s.Size)}
		},
		Detail: func(s Scale) (string, []Table) {
			pts := CrashTimeline(16, s.Size/4, 2*sim.Millisecond)
			return RenderTimeline("URAM, crash every 16 commands", pts, 8), nil
		}},
	{Name: "queues", Label: "multi-queue submission sweep", Group: Extension, Bench: "BENCH_queues.json",
		Run: func(s Scale) []Table {
			return []Table{QueueSweep(s.Queues, []int{1, 8}, s.Size/4)}
		}},
	{Name: "tenants", Label: "multi-tenant QoS sweep", Group: Extension, Bench: "BENCH_tenants.json",
		Run: func(Scale) []Table {
			return []Table{TenantSweep(0, 0)}
		}},
	{Name: "serve", Label: "open-loop serving sweep", Group: Extension, Bench: "BENCH_serve.json",
		Run: func(s Scale) []Table {
			return []Table{ServeSweep(s.Clients, 0, s.Phases)}
		}},
	{Name: "cluster", Label: "replicated-cluster sweep", Group: Extension, Bench: "BENCH_cluster.json",
		Run: func(s Scale) []Table {
			return []Table{ClusterSweep(s.Cluster, s.Size/32)}
		},
		Detail: func(Scale) (string, []Table) {
			pts, st := ClusterTimeline(24*sim.Millisecond, 2*sim.Millisecond)
			return RenderTimeline("3-node R=2 cluster, node 1 partitioned for a quarter of the run", pts, 8),
				[]Table{clusterRecovery(st)}
		}},
	{Name: "latency", Label: "latency breakdown", Group: Extension, Bench: "BENCH_latency.json",
		Run: func(s Scale) []Table {
			return []Table{LatencyBreakdown(s.Size / 4)}
		}},
	{Name: "timeline", Label: "bandwidth timeline", Group: Tool, Detail: func(s Scale) (string, []Table) {
		return RenderTimeline("URAM", Timeline(0, s.Size, 2*sim.Millisecond), 8), nil
	}},
	{Name: "sweep", Label: "transfer-size sweep", Group: Tool, Run: func(Scale) []Table {
		sizes := []int64{32 * sim.MiB, 64 * sim.MiB, 128 * sim.MiB, 256 * sim.MiB, 512 * sim.MiB}
		return []Table{SweepTransferSize(streamer.URAM, sizes)}
	}},
	{Name: "degraded", Label: "degraded striping", Group: Tool, Run: func(Scale) []Table {
		return []Table{StripedDegraded(3, 48*sim.MiB)}
	}},
}
