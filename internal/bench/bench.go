// Package bench regenerates every table and figure in the paper's
// evaluation (§5, §6) plus the §7 ablations, as plain-Go experiment
// runners shared by the root-level benchmarks and the snaccbench CLI.
// Each runner builds a fresh simulated system, executes the paper's
// workload, and returns its results as a Table of numbers.
package bench

import (
	"snacc/internal/nvme"
	"snacc/internal/pcie"
	"snacc/internal/sim"
	"snacc/internal/spdk"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
)

const ssdBAR = 0x10_0000_0000

// Variants lists the three SNAcc configurations in paper order.
func Variants() []streamer.Variant {
	return []streamer.Variant{streamer.URAM, streamer.OnboardDRAM, streamer.HostDRAM}
}

// snaccRig is one assembled SNAcc system.
type snaccRig struct {
	k    *sim.Kernel
	node *tapasco.Node
	dev  *nvme.Device
	st   *streamer.Streamer
	c    *streamer.Client
}

// buildSNAcc assembles platform + SSD + streamer and runs initialization.
func buildSNAcc(v streamer.Variant, mutSt func(*streamer.Config), mutDev func(*nvme.Config)) *snaccRig {
	k := sim.NewKernel()
	node := tapasco.NewNode(k, tapasco.DefaultU280())
	devCfg := nvme.DefaultConfig("ssd0", ssdBAR)
	if mutDev != nil {
		mutDev(&devCfg)
	}
	ssd := node.AddSSD(devCfg)
	stCfg := streamer.DefaultConfig("snacc0", 0, v)
	if mutSt != nil {
		mutSt(&stCfg)
	}
	st := node.AddStreamer(ssd, stCfg)
	if err := node.Boot(); err != nil {
		panic(err)
	}
	return &snaccRig{k: k, node: node, dev: ssd.Dev, st: st, c: streamer.NewClient(st)}
}

// runInMain spawns "main", which brings node up and then runs fn, drains
// the node's kernel and closes it — for rigs whose timed work shares the
// bring-up's process.
func runInMain(node *tapasco.Node, fn func(p *sim.Proc)) {
	k := node.Platform.K
	k.Spawn("main", func(p *sim.Proc) {
		if err := node.Init(p); err != nil {
			panic(err)
		}
		fn(p)
	})
	k.Run(0)
	k.Close()
}

// measure runs fn in a fresh proc and drains the kernel.
func (r *snaccRig) measure(fn func(p *sim.Proc)) {
	r.k.Spawn("bench", fn)
	r.k.Run(0)
}

// buildSPDK assembles host + SSD and attaches the SPDK driver.
func buildSPDK(qd int, mutDev func(*nvme.Config)) (*sim.Kernel, *pcie.Host, chan *spdk.Driver) {
	k := sim.NewKernel()
	f := pcie.NewFabric(k, pcie.DefaultConfig())
	host := pcie.NewHost(f, pcie.DefaultHostConfig())
	devCfg := nvme.DefaultConfig("ssd0", ssdBAR)
	if mutDev != nil {
		mutDev(&devCfg)
	}
	nvme.New(k, f, devCfg)
	f.IOMMU().Grant("ssd0", pcie.DefaultHostConfig().MemBase, pcie.DefaultHostConfig().MemSize)
	out := make(chan *spdk.Driver, 1)
	cfg := spdk.DefaultDriverConfig()
	if qd > 0 {
		cfg.QueueDepth = qd
	}
	k.Spawn("attach", func(p *sim.Proc) {
		d, err := spdk.Attach(p, host, ssdBAR, cfg)
		if err != nil {
			panic(err)
		}
		out <- d
	})
	return k, host, out
}
