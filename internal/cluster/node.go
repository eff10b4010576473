package cluster

import (
	"errors"
	"fmt"

	"snacc/internal/ethernet"
	"snacc/internal/fault"
	"snacc/internal/nvme"
	"snacc/internal/obs"
	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
)

// Card is one SNAcc card as instrumentation sees it: its platform, SSD,
// Streamer and span tracer.
type Card struct {
	Platform *tapasco.Platform
	Dev      *nvme.Device
	Streamer *streamer.Streamer
	Tracer   *obs.Tracer // nil without Config.TraceSpans
}

// node is one cluster member: a tapasco.Node built exactly like the
// facade's single system (its own platform and PCIe fabric, one NVMe SSD,
// one Streamer) plus a MAC. The
// serve loop applies capsules strictly in arrival order, which together
// with the switch's per-egress FIFO gives each node read-your-writes
// ordering without any protocol-level sequencing.
type node struct {
	Card
	cl  *Cluster
	id  int
	k   *sim.Kernel
	mac *ethernet.MAC
	c   *streamer.Client
	// rx drops/delays frames this node receives (the to-node side of a
	// Partition).
	rx *fault.LinkInjector

	// initErr is the outcome of the node's init process: nil once the
	// bring-up completed, a stall error until then.
	initErr error
}

// newNode assembles node id of cl and spawns its init process (drained by
// New before traffic starts).
func newNode(cl *Cluster, ecfg ethernet.Config, id int) *node {
	cfg, k := cl.cfg, cl.k
	n := &node{cl: cl, id: id, k: k}
	tn := tapasco.NewNode(k, tapasco.DefaultU280())
	// BAR assigned by enumeration; each node is its own PCIe fabric.
	devCfg := nvme.DefaultConfig(fmt.Sprintf("ssd%d", id), 0)
	devCfg.Functional = cfg.Functional
	if cfg.Seed != 0 {
		// Distinct per-node NAND jitter streams from one cluster seed.
		devCfg.NAND.Seed = splitmix64(cfg.Seed + uint64(id))
	}
	ssd := tn.AddSSD(devCfg)
	n.Platform, n.Dev = tn.Platform, ssd.Dev

	stCfg := streamer.DefaultConfig(fmt.Sprintf("snacc%d", id), 0, cfg.Variant)
	stCfg.Functional = cfg.Functional
	if cfg.QueueDepth > 0 {
		stCfg.QueueDepth = cfg.QueueDepth
	}
	// The health tracker depends on nodes resolving local faults (bounded
	// retry, breaker, reset+replay) or failing commands terminally, never
	// stalling them: every node arms the full recovery ladder.
	stCfg.ArmLadder()
	if cfg.StreamerTune != nil {
		cfg.StreamerTune(id, &stCfg)
	}
	n.Streamer = tn.AddStreamer(ssd, stCfg)
	n.c = streamer.NewClient(n.Streamer)

	if cfg.NodeInjector != nil {
		if in := cfg.NodeInjector(id); in != nil {
			in.Attach(n.Dev)
		}
	}
	if cfg.TraceSpans {
		n.Tracer = obs.NewTracer(cfg.SpanLimit)
		n.Tracer.SetNode(id)
		tn.Trace(n.Tracer)
	}

	n.rx = partitionLink(splitmix64(cfg.Seed+uint64(id)+0x746f), cfg.Partitions, id, true)

	n.mac = ethernet.NewMAC(k, fmt.Sprintf("node%d", id), ecfg)
	n.initErr = errors.New("initialization stalled")
	k.Spawn(fmt.Sprintf("node%d.init", id), func(p *sim.Proc) { n.initErr = tn.Init(p) })
	return n
}

// spawnServe starts the capsule serve loop (a daemon).
func (n *node) spawnServe() {
	n.k.Spawn(fmt.Sprintf("node%d.serve", n.id), n.serve)
}

func (n *node) serve(p *sim.Proc) {
	p.SetDaemon(true)
	for {
		f := n.mac.Recv(p)
		bc, ok := f.Meta.(*capsule)
		if !ok {
			continue
		}
		c := n.cl.capsules.take(bc)
		switch fate := n.rx.FrameFate(p.Now()); {
		case fate.Drop:
			continue
		case fate.Delay > 0:
			// Delaying in the serve loop preserves in-order application.
			p.Sleep(fate.Delay)
		}
		n.handle(p, c)
	}
}

// handle applies one capsule against the local streamer and answers. A
// node whose controller died still answers — the simulated NIC outlives
// the NVMe controller — with fail-fast errors (and probe replies saying
// so), which is what lets the coordinator's ladder distinguish a dead
// controller from a dead link. Payload crosses as page views: a write's
// pages reach the device by reference, and a read answers with the pages
// the streamer delivered.
func (n *node) handle(p *sim.Proc, c capsule) {
	rep := response{ID: c.ID, Node: n.id}
	switch c.Op {
	case opProbe:
		rep.OK = !n.Streamer.Dead()
		if !rep.OK {
			rep.Err = "controller dead"
		}
	case opWrite:
		err := n.c.WritePayload(p, c.Addr, c.Len, c.Data)
		c.Data.Release()
		if err != nil {
			rep.Err = err.Error()
		} else {
			rep.OK = true
			rep.Len = c.Len
		}
	case opRead:
		d, err := n.c.ReadPayload(p, c.Addr, c.Len)
		if err != nil {
			d.Release()
			rep.Err = err.Error()
		} else {
			rep.OK = true
			rep.Len = c.Len
			rep.Data = d
		}
	}
	// A read's payload crosses the wire whether or not the cluster
	// carries its bytes.
	wire := int64(capsuleBytes)
	if c.Op == opRead && rep.OK {
		wire += rep.Len
	}
	n.mac.Send(p, ethernet.Frame{Bytes: wire, Meta: n.cl.responses.box(rep), DstPort: 0})
}
