// Command snaccbench regenerates the tables and figures of the SNAcc paper
// (§5 evaluation, §6 case study), the §7 ablations and the extension sweeps
// from the simulation. Every experiment is a named entry of the
// internal/bench registry; -run selects entries by name:
//
//	snaccbench -run fig4a             # sequential NVMe bandwidth
//	snaccbench -run fig4b,fig4c       # random 4 KiB bandwidth and latency
//	snaccbench -run table1            # FPGA resource utilization
//	snaccbench -run fig6 -images 512  # case-study bandwidth and PCIe traffic (figures 6 and 7)
//	snaccbench -run qd,ooo,multissd,gen5,hbm,stripedcase,dram,qp,mtu  # §7 ablations
//	snaccbench -run faults            # fault-injection sweep (goodput vs error rate)
//	snaccbench -run crash             # controller-crash sweep + timeline, write BENCH_crash.json
//	snaccbench -run latency           # per-stage latency percentiles, write BENCH_latency.json
//	snaccbench -run queues -queues 1,2  # multi-queue sweep at chosen queue counts, write BENCH_queues.json
//	snaccbench -run tenants           # multi-tenant QoS sweep, write BENCH_tenants.json
//	snaccbench -run serve -clients 50000 -phases 1:200,8:25  # custom population and burst schedule
//	snaccbench -run cluster -nodes 4 -replication 3 -quorum 2  # one custom cluster shape
//	snaccbench -run all -j 8          # everything, rigs sharded over 8 workers
//	snaccbench -run degraded          # a striped set losing one member mid-stream
//
// Selected entries run in registry order, whatever the order of -run. An
// entry named explicitly also prints its detail output (the crash and
// cluster timelines, the cluster recovery table) and writes its BENCH file;
// run through "all" it does neither.
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
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"

	"snacc/internal/bench"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

func main() {
	scale := bench.DefaultScale()
	runArg := flag.String("run", "", "comma-separated experiments to run (listed above), or all")
	format := flag.String("format", "text", "table format: text, csv or json")
	sizeMiB := flag.Int64("size", scale.Size/sim.MiB, "transfer volume per bandwidth measurement (MiB)")
	images := flag.Int("images", scale.Images, "case-study stream length (paper: 16384)")
	samples := flag.Int("samples", scale.Samples, "latency samples for figure 4c")
	jobs := flag.Int("j", runtime.NumCPU(), "worker goroutines for independent experiment rigs (output is identical at any value)")
	queuesArg := flag.String("queues", "", "with -run queues: comma-separated I/O queue counts, each 1..8 (default 1,2,4,8)")
	serveClients := flag.String("clients", "", "with -run serve: comma-separated client populations (default 10000,100000,1000000)")
	servePhases := flag.String("phases", "", "with -run serve: burst schedule as scale:µs pairs, e.g. 1:200,6:50")
	clusterNodes := flag.Int("nodes", 0, "with -run cluster: run a single nodes/replication/quorum shape instead of the default grid")
	clusterRepl := flag.Int("replication", 0, "with -run cluster -nodes: replica count per chunk")
	clusterQuorum := flag.Int("quorum", 0, "with -run cluster -nodes: write acknowledgements required before completion")
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintf(w, "usage: snaccbench -run name[,name...]|all [flags]\n\nexperiments (* = part of all):\n")
		for _, e := range bench.Experiments {
			mark := " "
			if e.InAll() {
				mark = "*"
			}
			fmt.Fprintf(w, "  %s %-12s %s\n", mark, e.Name, e.Label)
		}
		fmt.Fprintf(w, "\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	// Flag validation mirrors snacctrace: a value outside the known set is a
	// usage error (exit 2), not a silent no-op run.
	fail := func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", a...)
		os.Exit(2)
	}
	if *runArg == "" {
		fail("missing -run (want all or a comma-separated list of: %s)", strings.Join(bench.Names(), ", "))
	}
	selected, err := bench.Select(strings.Split(*runArg, ",")...)
	if err != nil {
		fail("%v", err)
	}
	named := map[string]bool{}
	for _, e := range selected {
		named[e.Name] = e.Named
	}
	switch *format {
	case "text", "csv", "json":
	default:
		fail("unknown -format %q (want text, csv, or json)", *format)
	}
	if *jobs < 1 {
		fail("invalid -j %d (want >= 1)", *jobs)
	}
	// A -size whose byte count overflows int64 would wrap to some other
	// size (2^44+1 MiB to 1 MiB) and run; Validate checks the rest.
	if *sizeMiB > math.MaxInt64/sim.MiB || *sizeMiB < math.MinInt64/sim.MiB {
		fail("invalid -size %d (want MiB >= 1, at most %d)", *sizeMiB, math.MaxInt64/sim.MiB)
	}
	scale.Size, scale.Images, scale.Samples = *sizeMiB*sim.MiB, *images, *samples

	// Shape flags are strictly validated up front, and only with the entry
	// they shape selected, so a typo is a usage error, not a silently
	// defaulted run.
	if *queuesArg != "" {
		if !named["queues"] {
			fail("-queues requires -run queues")
		}
		scale.Queues = nil
		for _, part := range strings.Split(*queuesArg, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fail("invalid -queues entry %q (want integers 1..%d)", part, streamer.MaxIOQueues)
			}
			scale.Queues = append(scale.Queues, n)
		}
	}
	if *serveClients != "" || *servePhases != "" {
		if !named["serve"] {
			fail("-clients/-phases require -run serve")
		}
		var err error
		if *serveClients != "" {
			if scale.Clients, err = bench.ParseServeClients(*serveClients); err != nil {
				fail("%v", err)
			}
		}
		if scale.Phases, err = bench.ParseServePhases(*servePhases); err != nil {
			fail("%v", err)
		}
	}
	if *clusterNodes != 0 || *clusterRepl != 0 || *clusterQuorum != 0 {
		if !named["cluster"] {
			fail("-nodes/-replication/-quorum require -run cluster")
		}
		scale.Cluster = [][3]int{{*clusterNodes, *clusterRepl, *clusterQuorum}}
	}
	// Scale values feed transfer sizes and loop bounds directly; zero or
	// negative values would silently produce empty tables (or spin), so they
	// are usage errors too.
	if err := scale.Validate(); err != nil {
		fail("%v", err)
	}

	bench.SetParallelism(*jobs)
	show := func(t bench.Table) {
		switch *format {
		case "csv":
			fmt.Print(t.CSV())
		case "json":
			fmt.Println(t.JSON())
		default:
			fmt.Println(t)
		}
	}
	for _, e := range selected {
		fmt.Printf("running %s ...\n", e.Label)
		var tables []bench.Table
		if e.Run != nil {
			tables = e.Run(scale)
		}
		for _, t := range tables {
			show(t)
		}
		if !e.Named {
			continue
		}
		var text string
		if e.Detail != nil {
			var more []bench.Table
			text, more = e.Detail(scale)
			fmt.Println(text)
			for _, t := range more {
				show(t)
			}
		}
		if e.Bench != "" {
			doc := text
			if len(tables) > 0 {
				doc = tables[0].JSON()
			}
			if err := os.WriteFile(e.Bench, []byte(doc+"\n"), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Println("wrote", e.Bench)
		}
	}
}
