// Command snaccbench regenerates the tables and figures of the SNAcc paper
// (§5 evaluation, §6 case study) and the §7 ablations from the simulation.
//
// Usage:
//
//	snaccbench -fig 4a            # sequential NVMe bandwidth
//	snaccbench -fig 4b            # random 4 KiB bandwidth
//	snaccbench -fig 4c            # 4 KiB latency
//	snaccbench -table 1           # FPGA resource utilization
//	snaccbench -fig 6 -images 512 # case-study bandwidth
//	snaccbench -fig 7             # case-study PCIe traffic
//	snaccbench -ablation qd|ooo|multissd|gen5|dram
//	snaccbench -faults            # fault-injection sweep (goodput vs error rate)
//	snaccbench -crash             # controller-crash sweep (goodput + MTTR vs crash rate)
//	snaccbench -latency           # per-stage latency percentiles from span tracing
//	snaccbench -queues 1,2,4,8    # multi-queue submission sweep, write BENCH_queues.json
//	snaccbench -tenants           # multi-tenant QoS sweep, write BENCH_tenants.json
//	snaccbench -serve             # open-loop serving sweep (10k/100k/1M clients), write BENCH_serve.json
//	snaccbench -serve -clients 50000 -phases 1:200,8:25  # custom population and burst schedule
//	snaccbench -cluster           # replicated-cluster sweep + availability timeline, write BENCH_cluster.json
//	snaccbench -cluster -nodes 4 -replication 3 -quorum 2  # one custom cluster shape
//	snaccbench -all               # everything
//	snaccbench -all -j 8          # shard independent rigs over 8 workers
//	snaccbench -perfreport        # write BENCH_parallel.json
//
// -size scales the per-measurement transfer volume (MiB). Absolute numbers
// are calibrated against the paper's testbed; see EXPERIMENTS.md.
//
// -j selects how many worker goroutines independent simulation rigs are
// sharded across (default: all CPUs). Every rig owns a private simulation
// kernel with fixed seeds and rows are collected by index, so the output is
// bit-identical at any -j value.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"snacc/internal/bench"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 4a, 4b, 4c, 6, 7")
	table := flag.String("table", "", "table to regenerate: 1")
	ablation := flag.String("ablation", "", "ablation to run: qd, ooo, multissd, gen5, dram, hbm, stripedcase, mtu, qp")
	all := flag.Bool("all", false, "regenerate everything")
	sizeMiB := flag.Int64("size", 256, "transfer volume per bandwidth measurement (MiB)")
	images := flag.Int("images", 192, "case-study stream length (paper: 16384)")
	samples := flag.Int("samples", 200, "latency samples for figure 4c")
	csv := flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
	jsonOut := flag.Bool("json", false, "emit tables as JSON instead of aligned text")
	sweep := flag.Bool("sweep", false, "run the transfer-size convergence sweep")
	timeline := flag.Bool("timeline", false, "sample write bandwidth over time (shows banding epochs)")
	jobs := flag.Int("j", runtime.NumCPU(), "worker goroutines for independent experiment rigs (output is identical at any value)")
	perfreport := flag.Bool("perfreport", false, "measure serial vs parallel suite wall time and kernel throughput, write BENCH_parallel.json")
	faults := flag.Bool("faults", false, "run the NVMe fault-injection sweep (goodput and retry amplification vs error rate)")
	crash := flag.Bool("crash", false, "run the controller-crash sweep (goodput and MTTR vs crash rate), write BENCH_crash.json")
	latency := flag.Bool("latency", false, "run the latency-breakdown rig (per-stage latency percentiles from span tracing), write BENCH_latency.json")
	queuesArg := flag.String("queues", "", "comma-separated I/O queue counts for the multi-queue submission sweep (each 1..8), write BENCH_queues.json")
	tenants := flag.Bool("tenants", false, "run the multi-tenant QoS sweep (victim vs noisy neighbor, DRR vs FIFO), write BENCH_tenants.json")
	serveRun := flag.Bool("serve", false, "run the open-loop serving sweep (RPC fleet over 100G, pause/shed backpressure), write BENCH_serve.json")
	serveClients := flag.String("clients", "", "with -serve: comma-separated client populations (default 10000,100000,1000000)")
	servePhases := flag.String("phases", "", "with -serve: burst schedule as scale:µs pairs, e.g. 1:200,6:50")
	clusterRun := flag.Bool("cluster", false, "run the replicated-cluster sweep (node kill, failover, re-replication) and availability timeline, write BENCH_cluster.json")
	clusterNodes := flag.Int("nodes", 0, "with -cluster: run a single nodes/replication/quorum shape instead of the default grid")
	clusterRepl := flag.Int("replication", 0, "with -cluster -nodes: replica count per chunk")
	clusterQuorum := flag.Int("quorum", 0, "with -cluster -nodes: write acknowledgements required before completion")
	flag.Parse()

	// Flag validation mirrors snacctrace: a value outside the known set is a
	// usage error (exit 2), not a silent no-op run.
	fail := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", a...)
		os.Exit(2)
	}
	if *jobs < 1 {
		fail("invalid -j %d (want >= 1)", *jobs)
	}
	// Scale flags feed transfer sizes and loop bounds directly; zero or
	// negative values would silently produce empty tables (or spin), so they
	// are usage errors too.
	if *sizeMiB < 1 {
		fail("invalid -size %d (want MiB >= 1)", *sizeMiB)
	}
	if *images < 1 {
		fail("invalid -images %d (want >= 1)", *images)
	}
	if *samples < 1 {
		fail("invalid -samples %d (want >= 1)", *samples)
	}
	switch *fig {
	case "", "4a", "4b", "4c", "6", "7":
	default:
		fail("unknown figure %q (want 4a, 4b, 4c, 6, or 7)", *fig)
	}
	switch *table {
	case "", "1":
	default:
		fail("unknown table %q (want 1)", *table)
	}
	switch *ablation {
	case "", "qd", "ooo", "multissd", "gen5", "dram", "hbm", "stripedcase", "mtu", "qp":
	default:
		fail("unknown ablation %q (want qd, ooo, multissd, gen5, dram, hbm, stripedcase, mtu, or qp)", *ablation)
	}
	var queueCounts []int
	if *queuesArg != "" {
		for _, part := range strings.Split(*queuesArg, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n < 1 || n > streamer.MaxIOQueues {
				fail("invalid -queues entry %q (want integers 1..%d)", part, streamer.MaxIOQueues)
			}
			queueCounts = append(queueCounts, n)
		}
	}
	// Serving-sweep shape: both flags are strictly validated up front so a
	// typo is a usage error, not a silently defaulted run.
	if (*serveClients != "" || *servePhases != "") && !*serveRun {
		fail("-clients/-phases require -serve")
	}
	serveClientList := bench.DefaultServeClients
	if *serveClients != "" {
		var err error
		if serveClientList, err = bench.ParseServeClients(*serveClients); err != nil {
			fail("%v", err)
		}
	}
	servePhaseList, err := bench.ParseServePhases(*servePhases)
	if err != nil {
		fail("%v", err)
	}

	// A custom cluster shape must be a valid replication arrangement:
	// at least two nodes, and 1 <= quorum <= replication <= nodes.
	clusterGrid := [][3]int{{3, 2, 1}, {3, 2, 2}, {3, 3, 2}, {4, 2, 1}, {4, 3, 2}, {5, 3, 2}}
	if *clusterNodes != 0 || *clusterRepl != 0 || *clusterQuorum != 0 {
		if !*clusterRun {
			fail("-nodes/-replication/-quorum require -cluster")
		}
		n, r, q := *clusterNodes, *clusterRepl, *clusterQuorum
		if n < 2 {
			fail("invalid -nodes %d (want >= 2)", n)
		}
		if r < 1 || r > n {
			fail("invalid -replication %d (want 1 <= replication <= nodes=%d)", r, n)
		}
		if q < 1 || q > r {
			fail("invalid -quorum %d (want 1 <= quorum <= replication=%d)", q, r)
		}
		clusterGrid = [][3]int{{n, r, q}}
	}

	bench.SetParallelism(*jobs)
	size := *sizeMiB * sim.MiB
	ran := false
	show := func(t bench.Table) {
		switch {
		case *csv:
			fmt.Print(t.CSV())
		case *jsonOut:
			fmt.Println(t.JSON())
		default:
			fmt.Println(t)
		}
	}
	run := func(name string, fn func()) {
		ran = true
		fmt.Printf("running %s ...\n", name)
		fn()
	}

	if *all || *fig == "4a" {
		run("figure 4a", func() { show(bench.RenderFig4a(bench.Fig4a(size))) })
	}
	if *all || *fig == "4b" {
		run("figure 4b", func() { show(bench.RenderFig4b(bench.Fig4b(size / 4))) })
	}
	if *all || *fig == "4c" {
		run("figure 4c", func() { show(bench.RenderFig4c(bench.Fig4c(*samples))) })
	}
	if *all || *table == "1" {
		run("table 1", func() { show(bench.RenderTable1(bench.Table1())) })
	}
	if *all || *fig == "6" || *fig == "7" {
		run("figures 6 and 7 (shared case-study runs)", func() {
			rows := bench.Fig6(*images)
			show(bench.RenderFig6(rows))
			show(bench.RenderFig7(rows))
		})
	}
	if *all || *ablation == "qd" {
		run("ablation A1 (queue depth)", func() {
			show(bench.RenderAblationQD(bench.AblationQD([]int{4, 16, 64, 256}, size/8)))
		})
	}
	if *all || *ablation == "ooo" {
		run("ablation A2 (out-of-order retirement)", func() {
			show(bench.RenderAblationOOO(bench.AblationOOO(size / 8)))
		})
	}
	if *all || *ablation == "multissd" {
		run("ablation A3 (multi-SSD)", func() {
			show(bench.RenderAblationMultiSSD(bench.AblationMultiSSD([]int{1, 2, 4}, size/2)))
		})
	}
	if *all || *ablation == "gen5" {
		run("ablation A4 (PCIe 5.0)", func() {
			show(bench.RenderAblationGen5(bench.AblationGen5(size)))
		})
	}
	if *all || *ablation == "hbm" {
		run("ablation A6 (HBM staging)", func() {
			show(bench.RenderAblationHBM(bench.AblationHBM(size)))
		})
	}
	if *all || *ablation == "stripedcase" {
		run("ablation A7 (striped multi-SSD case study)", func() {
			show(bench.RenderFig6Striped(bench.Fig6Striped([]int{1, 2, 3}, *images)))
		})
	}
	if *all || *ablation == "dram" {
		run("ablation A5 (DRAM controller)", func() {
			show(bench.RenderAblationDRAM(bench.AblationDRAM(size)))
		})
	}
	if *all || *ablation == "qp" {
		run("ablation A9 (queue pairs on one SSD)", func() {
			show(bench.RenderAblationQP(bench.AblationQP([]int{1, 2, 4}, size/8)))
		})
	}
	if *all || *ablation == "mtu" {
		run("ablation A8 (Ethernet MTU)", func() {
			show(bench.RenderAblationMTU(bench.AblationMTU([]int64{1500, 4096, 9000}, *images)))
		})
	}

	if *all || *faults {
		run("fault-injection sweep", func() {
			show(bench.RenderFaultSweep(bench.FaultSweep([]float64{0, 0.1, 1, 5}, size)))
		})
	}
	if *all || *crash {
		run("controller-crash sweep", func() {
			table := bench.RenderCrashSweep(bench.CrashSweep([]int64{0, 64, 16, 4}, size))
			show(table)
			if *crash {
				pts := bench.CrashTimeline(16, size/4, 2*sim.Millisecond)
				fmt.Println(bench.RenderTimeline("URAM, crash every 16 commands", pts, 8))
				if err := os.WriteFile("BENCH_crash.json", []byte(table.JSON()+"\n"), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Println("wrote BENCH_crash.json")
			}
		})
	}
	if *all || *queuesArg != "" {
		run("multi-queue submission sweep", func() {
			counts := queueCounts
			if len(counts) == 0 {
				counts = []int{1, 2, 4, 8}
			}
			table := bench.RenderQueueSweep(bench.QueueSweep(counts, []int{1, 8}, size/4))
			show(table)
			if *queuesArg != "" {
				if err := os.WriteFile("BENCH_queues.json", []byte(table.JSON()+"\n"), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Println("wrote BENCH_queues.json")
			}
		})
	}
	if *all || *tenants {
		run("multi-tenant QoS sweep", func() {
			table := bench.RenderTenantSweep(bench.TenantSweep(0, 0))
			show(table)
			if *tenants {
				if err := os.WriteFile("BENCH_tenants.json", []byte(table.JSON()+"\n"), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Println("wrote BENCH_tenants.json")
			}
		})
	}
	if *all || *serveRun {
		run("open-loop serving sweep", func() {
			table := bench.RenderServeSweep(bench.ServeSweep(serveClientList, 0, servePhaseList))
			show(table)
			if *serveRun {
				if err := os.WriteFile("BENCH_serve.json", []byte(table.JSON()+"\n"), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Println("wrote BENCH_serve.json")
			}
		})
	}
	if *all || *clusterRun {
		run("replicated-cluster sweep", func() {
			table := bench.RenderClusterSweep(bench.ClusterSweep(clusterGrid, size/32))
			show(table)
			if *clusterRun {
				pts, st := bench.ClusterTimeline(24*sim.Millisecond, 2*sim.Millisecond)
				fmt.Println(bench.RenderTimeline("3-node R=2 cluster, node 1 partitioned for a quarter of the run", pts, 8))
				show(bench.RenderClusterRecovery(st))
				if err := os.WriteFile("BENCH_cluster.json", []byte(table.JSON()+"\n"), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Println("wrote BENCH_cluster.json")
			}
		})
	}
	if *all || *latency {
		run("latency breakdown", func() {
			table := bench.RenderLatencyBreakdown(bench.LatencyBreakdown(size / 4))
			show(table)
			if *latency {
				if err := os.WriteFile("BENCH_latency.json", []byte(table.JSON()+"\n"), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Println("wrote BENCH_latency.json")
			}
		})
	}
	if flagTimeline := *timeline; flagTimeline {
		run("bandwidth timeline", func() {
			pts := bench.Timeline(0, size, 2*sim.Millisecond)
			fmt.Println(bench.RenderTimeline("URAM", pts, 8))
		})
	}
	if *sweep {
		run("transfer-size sweep", func() {
			sizes := []int64{32 * sim.MiB, 64 * sim.MiB, 128 * sim.MiB, 256 * sim.MiB, 512 * sim.MiB}
			rows := bench.SweepTransferSize(0, sizes)
			show(bench.RenderSweep("URAM", rows))
		})
	}
	if *perfreport {
		run("perf report (serial vs parallel)", func() {
			rep := bench.MeasurePerf(*jobs)
			doc := rep.JSON()
			if err := os.WriteFile("BENCH_parallel.json", []byte(doc+"\n"), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println(doc)
		})
	}

	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}
