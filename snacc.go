// Package snacc is a full-system simulation of SNAcc, the open-source
// framework for streaming-based network-to-storage FPGA accelerators
// (Volz, Kalkhof, Koch — SC Workshops '25). It reproduces the paper's
// entire stack in deterministic discrete-event simulation: a PCIe fabric
// with peer-to-peer transfers and an IOMMU, a protocol-level NVMe SSD
// model, the TaPaSCo platform layer, 100 G Ethernet with 802.3x flow
// control, and — as the core contribution — the NVMe Streamer IP in its
// three buffer variants (URAM, on-board DRAM, host DRAM) with on-the-fly
// PRP-list synthesis and in-order retirement.
//
// The package exposes two levels:
//
//   - System / Handle: build a simulated FPGA+SSD system and drive it the
//     way a user PE drives the Streamer's four AXI streams — writes carry
//     real bytes end to end through the NVMe protocol onto simulated
//     flash, and reads bring them back.
//
//   - Run: regenerate any table or figure of the paper's evaluation, or
//     all of them, by its `snaccbench` name.
package snacc

import (
	"fmt"

	"snacc/internal/cluster"
	"snacc/internal/fault"
	"snacc/internal/fpga"
	"snacc/internal/nvme"
	"snacc/internal/obs"
	"snacc/internal/pcie"
	"snacc/internal/serve"
	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
	"snacc/internal/workload"
)

// Span is a traced NVMe command: timestamped pipeline stages from PE
// acceptance to in-order retirement, plus retry/replay/breaker annotations.
type Span = obs.Span

// SpanStage identifies one pipeline stage of a Span.
type SpanStage = obs.Stage

// LatencyHist is a fixed-bucket latency histogram (log-spaced buckets,
// zero-allocation record path).
type LatencyHist = obs.Hist

// Variant selects the NVMe Streamer's payload buffer memory (paper §4.3).
type Variant = streamer.Variant

// TenantConfig describes one tenant of a virtualized Streamer: its isolated
// LBA window, DRR weight, optional token-bucket rate limit, and admission
// cap. See streamer.TenantConfig for field semantics and defaults.
type TenantConfig = streamer.TenantConfig

// TenantStats is one tenant's per-tenant counter snapshot.
type TenantStats = streamer.TenantStats

// The three Streamer variants.
const (
	URAM        = streamer.URAM
	OnboardDRAM = streamer.OnboardDRAM
	HostDRAM    = streamer.HostDRAM
)

// Options configures a simulated system.
type Options struct {
	// Variant picks the Streamer buffer memory. Default URAM.
	Variant Variant
	// QueueDepth is the NVMe submission queue / reorder buffer depth.
	// Default 64, as in the paper.
	QueueDepth int
	// IOQueues shards the Streamer's submission path across this many NVMe
	// I/O queue pairs (1..8) with round-robin placement; the reorder buffer
	// stays global so retirement remains strictly in order. 0 or 1 keeps
	// the paper's single-queue model with its exact event timeline.
	IOQueues int
	// DoorbellBatch coalesces doorbell writes: SQ tail doorbells ring once
	// per DoorbellBatch submitted commands (with the final tail) and CQ-head
	// updates post once per drained run of up to DoorbellBatch completions.
	// 0 or 1 rings per command, as in the paper.
	DoorbellBatch int
	// OutOfOrder enables the §7 out-of-order retirement extension.
	OutOfOrder bool
	// KernelWorkers has no effect: every system runs on one serial event
	// loop. It stays accepted so existing callers keep compiling; a negative
	// value is still rejected.
	KernelWorkers int
	// Functional moves real payload bytes through the whole stack
	// (Ethernet frames, PCIe TLPs, PRP lists, NAND media). Default true —
	// turn it off for large timing-only experiments.
	Functional *bool
	// Seed makes otherwise-default stochastic models (NAND latency
	// jitter) deterministic per run.
	Seed uint64
	// Faults, when non-nil, attaches a deterministic NVMe fault injector
	// to the SSD and enables the Streamer's retry/timeout recovery.
	Faults *FaultOptions
	// Trace, when non-nil, enables per-command span tracing and per-stage
	// latency histograms. Without it the pipeline is uninstrumented and
	// pays nothing.
	Trace *TraceOptions
	// Tenants, when non-empty, virtualizes the Streamer: each tenant gets
	// its own command/data stream pair, an isolated LBA window enforced on
	// every submission, a weighted share of the device under deficit
	// round-robin scheduling, and optional token-bucket rate limiting with
	// admission control. Tenant traffic goes through Handle.TenantRead /
	// TenantWrite; the raw Handle.ReadErr / WriteErr / *Timed entry points
	// return an error, since they would bypass the isolation windows.
	Tenants []TenantConfig
	// Cluster, when non-nil, scales the system out: Nodes full
	// streamer+SSD stacks behind the simulated Ethernet switch, a
	// consistent-hash ring sharding the logical byte space with
	// replication factor Replication, quorum writes, read failover, and
	// background re-replication. The Handle transfers and the serving tier
	// then address the cluster's replicated logical space. Options.Faults
	// arms every node without a ClusterOptions.NodeFaults entry; Tenants and
	// Trace.Boundary are rejected.
	Cluster *ClusterOptions
	// Serve, when non-nil, attaches the open-loop RPC serving tier: a
	// simulated client fleet sends length-prefixed read/write capsules over
	// the 100 G link into a frame decoder, connection table and dispatch
	// queue in front of the Streamer. System.Serve runs the workload to
	// quiescence and returns the fleet-side report. With Options.Tenants
	// set, requests are stamped with tenant IDs and dispatched through the
	// virtualized hub, one lane per tenant; with Options.Cluster, into the
	// cluster, the cluster being the one lane.
	Serve *ServeOptions
}

// ServePhase is one step of the serving workload's burst schedule: the
// baseline arrival rate is multiplied by RateScale for DurationNs of
// simulated time, and the schedule cycles.
type ServePhase struct {
	RateScale  float64
	DurationNs int64
}

// ServeOptions configures Options.Serve, the open-loop serving tier. The
// zero value of every field selects the default noted on it, so
// Options{Serve: &ServeOptions{}} is a complete serving system.
type ServeOptions struct {
	// Clients is the simulated client population (default 10 000).
	Clients int
	// RatePerSec is the aggregate open-loop arrival rate before phase
	// scaling (default 500 000/s).
	RatePerSec float64
	// Requests is the total arrivals to generate (default 4000).
	Requests int64
	// IOBytes is the per-request transfer size, a positive multiple of
	// 512 (default 4 KiB).
	IOBytes int64
	// SpanBytes is the logical byte span requests address (default
	// 256 MiB). With tenants it must fit the tenant LBA windows.
	SpanBytes int64
	// ReadFraction is the probability a request is a read; 0 selects the
	// default 0.7.
	ReadFraction float64
	// ZipfTheta / ZipfBuckets shape the zipfian address distribution
	// (defaults 0.9 and 64).
	ZipfTheta   float64
	ZipfBuckets int
	// Phases is the burst schedule; empty means a flat rate.
	Phases []ServePhase
	// CloseProbability is the per-request chance the client closes its
	// connection afterwards (session churn). Default 0: connections stay
	// open.
	CloseProbability float64
	// Seed drives the workload generator (0 selects a fixed default).
	Seed uint64
}

// ServeReport is the serving tier's end-of-run accounting: arrivals
// generated/sent/shed, completions and goodput, due→response latency
// percentiles, dispatch-queue and connection-table high-water marks, the
// connection-state footprint in bytes, and 802.3x pause activity.
type ServeReport = serve.Report

// build translates the public options into the internal workload spec.
// Zero fields stay zero: serve.New fills them with the serving workload's
// defaults, the same ones the bench's serve sweep runs on. Validation
// happens there too.
func (o *ServeOptions) build(tenants int) workload.OpenLoopSpec {
	spec := workload.OpenLoopSpec{
		Clients:      o.Clients,
		RatePerSec:   o.RatePerSec,
		Ops:          o.Requests,
		ReadFraction: o.ReadFraction,
		IOBytes:      o.IOBytes,
		SpanBytes:    o.SpanBytes,
		ZipfTheta:    o.ZipfTheta,
		ZipfBuckets:  o.ZipfBuckets,
		CloseProb:    o.CloseProbability,
		Seed:         o.Seed,
		Tenants:      tenants,
	}
	for _, ph := range o.Phases {
		spec.Phases = append(spec.Phases, workload.PhaseSpec{
			RateScale: ph.RateScale,
			Duration:  sim.Time(ph.DurationNs),
		})
	}
	return spec
}

// ClusterOptions configures Options.Cluster: a replicated multi-node
// cluster over the simulated network.
type ClusterOptions struct {
	// Nodes is the node count (>= 2); Replication the copies per chunk
	// (1 <= R <= Nodes); Quorum the replica acks a write needs before
	// acknowledging the caller (1 <= Q <= R).
	Nodes       int
	Replication int
	Quorum      int
	// ChunkBytes is the placement/repair granule, a positive multiple of
	// 4 KiB up to 4 MiB (default 256 KiB).
	ChunkBytes int64
	// RequestTimeoutNs bounds one coordinator->node capsule exchange
	// (default 10 ms); DeadAfter consecutive failures declare a node dead
	// (default 2); ProbeIntervalNs/ProbeLimit bound the rejoin prober
	// (defaults 2 ms, 25).
	RequestTimeoutNs int64
	DeadAfter        int
	ProbeIntervalNs  int64
	ProbeLimit       int
	// NodeFaults attaches a per-node NVMe fault injector (keyed by node
	// index in [0, Nodes)); a node's entry also arms its Streamer recovery
	// ladder with the same knobs as Options.Faults, and replaces
	// Options.Faults on that node.
	NodeFaults map[int]*FaultOptions
	// Partitions lists link-level fault windows against nodes.
	Partitions []LinkPartition
}

// LinkPartition drops or delays frames to/from one node for a window of
// simulated time — a network fault, as opposed to the NVMe-level faults of
// FaultOptions.
type LinkPartition struct {
	// Node is the partitioned node.
	Node int
	// FromNs/UntilNs bound the window ([From, Until); UntilNs 0 = forever).
	FromNs, UntilNs int64
	// Drop discards matched frames; otherwise they arrive DelayNs late.
	Drop    bool
	DelayNs int64
	// Probability/Nth/Count select frames inside the window (all zero =
	// every frame).
	Probability float64
	Nth, Count  int64
	// ToNode affects frames the node receives, FromNode frames it sends;
	// neither set means both directions.
	ToNode, FromNode bool
}

// TraceOptions configures the observability layer.
type TraceOptions struct {
	// SpanLimit caps the completed spans retained for export (the first
	// SpanLimit to finish; histograms keep aggregating past the cap).
	// Default obs.DefaultSpanLimit.
	SpanLimit int
	// Boundary additionally attaches a PCIe transaction tracer at the
	// staging-buffer boundary — the position of the paper's §5.2 ILA —
	// exposed through BoundaryTrace.
	Boundary bool
}

// FaultOptions configures seed-driven NVMe fault injection plus the
// Streamer's recovery machinery. The zero value of each field selects a
// sensible default, so enabling recovery without faults is just
// Options{Faults: &FaultOptions{}}.
type FaultOptions struct {
	// Seed drives the injector's probability decisions. Default 1.
	Seed uint64
	// ReadErrorRate / WriteErrorRate are per-command probabilities of the
	// device failing a read/write with a retryable data-transfer error.
	ReadErrorRate  float64
	WriteErrorRate float64
	// CQELossRate is the per-completion probability of the CQE being
	// dropped on the wire, exercising the watchdog path.
	CQELossRate float64
	// CmdTimeoutNs is the per-command watchdog deadline. Default 50 ms; it
	// must comfortably exceed the device's worst-case completion latency.
	CmdTimeoutNs int64
	// MaxRetries bounds resubmissions per command. Default 3; use -1 to
	// abort on the first failure.
	MaxRetries int
	// RetryBackoffNs is the base backoff before a resubmission, doubled
	// per attempt. Default 10 µs.
	RetryBackoffNs int64

	// Controller-level failure injection. Any of the three enables the
	// Streamer's crash-recovery ladder (circuit breaker, controller reset,
	// in-flight replay) alongside the per-command machinery above.

	// CrashEveryNCmds crashes the controller (latches CSTS.CFS, stops
	// fetching and completing) as every Nth I/O command reaches
	// completion; the crashed command's data has moved but its CQE is
	// withheld, so replay is idempotent. Values below 2 are rejected: a
	// controller that dies at every command can never retire one, so the
	// workload could not make progress.
	CrashEveryNCmds int64
	// HangAtCommand freezes the command engine as the Nth I/O command
	// completes, for HangDurationNs, then revives it. Fires once.
	HangAtCommand int64
	// HangDurationNs is the hang length. Default 5 ms.
	HangDurationNs int64
	// RemoveAtCommand surprise-removes the controller at the Nth I/O
	// completion: registers float all-1s and no reset revives it. Fires
	// once.
	RemoveAtCommand int64

	// Recovery-ladder knobs (apply when any controller fault above is set,
	// or when explicitly non-zero).

	// CrashDetectTimeoutNs is the controller-status poll interval — how
	// quickly a latched fatal status or a removal is noticed without
	// waiting out the command deadline. Default 1 ms.
	CrashDetectTimeoutNs int64
	// BreakerThreshold is the consecutive-timeout count that trips the
	// circuit breaker. Default 2.
	BreakerThreshold int
	// MaxResets bounds controller reset attempts per breaker trip before
	// the controller is declared dead. Default 2; use -1 for 0 (any trip
	// is terminal).
	MaxResets int
}

// wantsBreaker reports whether the options ask for the crash-recovery
// ladder — either by injecting controller-level faults or by setting one of
// its knobs explicitly.
func (f *FaultOptions) wantsBreaker() bool {
	return f.CrashEveryNCmds > 0 || f.HangAtCommand > 0 || f.RemoveAtCommand > 0 ||
		f.CrashDetectTimeoutNs > 0 || f.BreakerThreshold > 0 || f.MaxResets != 0
}

// System is an assembled simulation: Alveo U280 + host + Samsung 990 PRO
// model + one NVMe Streamer, fully initialized (admin queue brought up,
// I/O queues created inside the Streamer window, IOMMU granted, doorbells
// programmed) — or, with Options.Cluster, a replicated cluster of such
// cards.
type System struct {
	k    *sim.Kernel                // the kernel every model of the system runs on
	exec func(fn func(p *sim.Proc)) // runs fn as the app process and drains k
	// cards holds the system's card, or one per cluster node in node order.
	cards    []card
	boundary *pcie.Tracer        // nil unless Options.Trace.Boundary was set
	hub      *streamer.TenantHub // nil unless Options.Tenants was set
	// lanes holds the storage seam every Handle method, the workload
	// drivers and the serving tier drive: the Streamer's client, one client
	// per tenant, or the cluster.
	lanes   []serve.Lane
	cluster *cluster.Cluster // nil unless Options.Cluster was set
	serve   *serve.Tier      // nil unless Options.Serve was set
	closed  bool
}

// errClosed is what every transfer reports once the system is closed.
var errClosed = fmt.Errorf("snacc: system is closed")

// card is one SNAcc card of the system — the single card or a cluster
// node — with its tracer (nil without Options.Trace) and fault injector.
type card struct {
	cluster.Card
	injector *fault.Injector // nil without faults on this card
}

// NewSystem builds and initializes a system. The SSD's register BAR is not
// hard-coded: the host enumerates the fabric's config space and locates
// the device by its NVMe class code, the way a real kernel probes.
func NewSystem(opts Options) (*System, error) {
	functional := true
	if opts.Functional != nil {
		functional = *opts.Functional
	}
	if opts.Faults != nil && opts.Faults.CrashEveryNCmds == 1 {
		return nil, fmt.Errorf("snacc: CrashEveryNCmds must be >= 2 (a controller that crashes at every command never completes one)")
	}
	if opts.IOQueues < 0 || opts.IOQueues > streamer.MaxIOQueues {
		return nil, fmt.Errorf("snacc: IOQueues must be between 0 and %d, got %d", streamer.MaxIOQueues, opts.IOQueues)
	}
	if opts.DoorbellBatch < 0 {
		return nil, fmt.Errorf("snacc: DoorbellBatch must be non-negative, got %d", opts.DoorbellBatch)
	}
	if opts.KernelWorkers < 0 {
		return nil, fmt.Errorf("snacc: KernelWorkers must be non-negative, got %d", opts.KernelWorkers)
	}
	sys := &System{}
	if opts.Cluster != nil {
		if err := sys.buildCluster(opts, functional); err != nil {
			return nil, err
		}
	} else if err := sys.buildCard(sim.NewKernel(), opts, functional); err != nil {
		return nil, err
	}
	if opts.Serve != nil {
		var err error
		if sys.serve, err = serve.New(sys.k, opts.Serve.build(len(opts.Tenants)), sys.lanes); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// buildCard assembles and boots the single card on kernel k, then opens
// its lanes: the Streamer's client, or one client per tenant.
func (s *System) buildCard(k *sim.Kernel, opts Options, functional bool) error {
	node := tapasco.NewNode(k, tapasco.DefaultU280())
	devCfg := nvme.DefaultConfig("ssd0", 0) // BAR assigned by enumeration
	devCfg.Functional = functional
	if opts.Seed != 0 {
		devCfg.NAND.Seed = opts.Seed
	}
	ssd := node.AddSSD(devCfg)
	stCfg := streamer.DefaultConfig("snacc0", 0, opts.Variant)
	stCfg.Functional = functional
	stCfg.OutOfOrder = opts.OutOfOrder
	if opts.QueueDepth > 0 {
		stCfg.QueueDepth = opts.QueueDepth
	}
	stCfg.IOQueues = opts.IOQueues
	stCfg.DoorbellBatch = opts.DoorbellBatch
	if opts.Faults != nil {
		applyFaultRecovery(&stCfg, opts.Faults)
	}
	c := card{Card: cluster.Card{Platform: node.Platform, Dev: ssd.Dev, Streamer: node.AddStreamer(ssd, stCfg)}}
	if opts.Faults != nil {
		c.injector = buildInjector(opts.Faults)
		c.injector.Attach(ssd.Dev)
	}
	if opts.Trace != nil {
		c.Tracer = obs.NewTracer(opts.Trace.SpanLimit)
		node.Trace(c.Tracer)
		if opts.Trace.Boundary {
			s.boundary = node.Platform.AttachBoundaryTracer(c.Streamer)
		}
	}
	if err := node.Boot(); err != nil {
		return err
	}
	s.k, s.cards = k, []card{c}
	s.exec = func(fn func(p *sim.Proc)) {
		k.Spawn("app", fn)
		k.Run(0)
	}
	if len(opts.Tenants) == 0 {
		s.lanes = []serve.Lane{streamer.NewClient(c.Streamer)}
		return nil
	}
	hub, err := streamer.NewTenantHub(k, c.Streamer, opts.Tenants, streamer.HubOptions{})
	if err != nil {
		return err
	}
	s.hub = hub
	for i := 0; i < hub.Tenants(); i++ {
		s.lanes = append(s.lanes, hub.Client(i))
	}
	return nil
}

// applyFaultRecovery maps FaultOptions onto the Streamer's recovery knobs:
// the reference settings (streamer.Config.ArmRetry, or ArmLadder when the
// options ask for the crash-recovery ladder) with each set field overriding
// its default.
func applyFaultRecovery(cfg *streamer.Config, f *FaultOptions) {
	ladder := f.wantsBreaker()
	if ladder {
		cfg.ArmLadder()
	} else {
		cfg.ArmRetry()
	}
	if f.CmdTimeoutNs > 0 {
		cfg.CmdTimeout = sim.Time(f.CmdTimeoutNs)
	}
	if f.MaxRetries != 0 {
		cfg.MaxRetries = max(f.MaxRetries, 0)
	}
	if f.RetryBackoffNs > 0 {
		cfg.RetryBackoff = sim.Time(f.RetryBackoffNs)
	}
	if !ladder {
		return
	}
	if f.BreakerThreshold > 0 {
		cfg.BreakerThreshold = f.BreakerThreshold
	}
	if f.MaxResets != 0 {
		cfg.MaxResets = max(f.MaxResets, 0)
	}
	if f.CrashDetectTimeoutNs > 0 {
		cfg.CFSPollInterval = sim.Time(f.CrashDetectTimeoutNs)
	}
}

// buildInjector translates FaultOptions rates into injector rules.
func buildInjector(f *FaultOptions) *fault.Injector {
	seed := f.Seed
	if seed == 0 {
		seed = 1
	}
	in := fault.NewInjector(seed)
	if f.ReadErrorRate > 0 {
		in.Add(fault.Rule{Name: "read-errors", Kind: fault.StatusError,
			Opcode: nvme.OpRead, Probability: f.ReadErrorRate,
			Status: nvme.StatusDataTransferError})
	}
	if f.WriteErrorRate > 0 {
		in.Add(fault.Rule{Name: "write-errors", Kind: fault.StatusError,
			Opcode: nvme.OpWrite, Probability: f.WriteErrorRate,
			Status: nvme.StatusDataTransferError})
	}
	if f.CQELossRate > 0 {
		in.Add(fault.Rule{Name: "cqe-loss", Kind: fault.DropCQE,
			Opcode: fault.OpAny, Probability: f.CQELossRate})
	}
	if f.CrashEveryNCmds > 0 {
		in.Add(fault.Rule{Name: "ctrl-crash", Kind: fault.CrashCtrl,
			Opcode: fault.OpAny, Nth: f.CrashEveryNCmds})
	}
	if f.HangAtCommand > 0 {
		hang := 5 * sim.Millisecond
		if f.HangDurationNs > 0 {
			hang = sim.Time(f.HangDurationNs)
		}
		in.Add(fault.Rule{Name: "ctrl-hang", Kind: fault.HangCtrl,
			Opcode: fault.OpAny, Nth: f.HangAtCommand, Count: 1, Delay: hang})
	}
	if f.RemoveAtCommand > 0 {
		in.Add(fault.Rule{Name: "ctrl-remove", Kind: fault.RemoveCtrl,
			Opcode: fault.OpAny, Nth: f.RemoveAtCommand, Count: 1})
	}
	return in
}

// buildCluster assembles a replicated multi-node system behind the
// simulated Ethernet switch (Options.Cluster). The cluster is the system's
// one lane; Options.Faults applies to every node without a NodeFaults
// entry of its own.
func (s *System) buildCluster(opts Options, functional bool) error {
	// A tenant hub forwards its backend's AXI read packets, which the
	// cluster's capsule path does not produce.
	if len(opts.Tenants) > 0 {
		return fmt.Errorf("snacc: Options.Tenants is incompatible with Options.Cluster")
	}
	// The boundary tracer taps one card's PCIe port; a cluster has no single one.
	if opts.Trace != nil && opts.Trace.Boundary {
		return fmt.Errorf("snacc: Trace.Boundary is not supported in cluster mode")
	}
	co := opts.Cluster
	for nd, f := range co.NodeFaults {
		if nd < 0 || nd >= co.Nodes {
			return fmt.Errorf("snacc: NodeFaults names node %d outside [0, %d)", nd, co.Nodes)
		}
		if f != nil && f.CrashEveryNCmds == 1 {
			return fmt.Errorf("snacc: node %d: CrashEveryNCmds must be >= 2", nd)
		}
	}
	faults := func(node int) *FaultOptions {
		if f := co.NodeFaults[node]; f != nil {
			return f
		}
		return opts.Faults
	}
	ccfg := cluster.DefaultConfig(co.Nodes, co.Replication, co.Quorum)
	ccfg.ChunkBytes = co.ChunkBytes
	ccfg.Functional = functional
	ccfg.Seed = opts.Seed
	ccfg.Variant = opts.Variant
	ccfg.QueueDepth = opts.QueueDepth
	ccfg.RequestTimeout = sim.Time(co.RequestTimeoutNs)
	ccfg.DeadAfter = co.DeadAfter
	ccfg.ProbeInterval = sim.Time(co.ProbeIntervalNs)
	ccfg.ProbeLimit = co.ProbeLimit
	if opts.Trace != nil {
		ccfg.TraceSpans = true
		ccfg.SpanLimit = opts.Trace.SpanLimit
	}
	injectors := map[int]*fault.Injector{}
	ccfg.NodeInjector = func(node int) *fault.Injector {
		if f := faults(node); f != nil {
			injectors[node] = buildInjector(f)
		}
		return injectors[node]
	}
	ccfg.StreamerTune = func(node int, cfg *streamer.Config) {
		cfg.OutOfOrder = opts.OutOfOrder
		cfg.IOQueues = opts.IOQueues
		cfg.DoorbellBatch = opts.DoorbellBatch
		if f := faults(node); f != nil {
			applyFaultRecovery(cfg, f)
		}
	}
	for _, pt := range co.Partitions {
		ccfg.Partitions = append(ccfg.Partitions, cluster.Partition{
			Node:        pt.Node,
			From:        sim.Time(pt.FromNs),
			Until:       sim.Time(pt.UntilNs),
			Drop:        pt.Drop,
			Delay:       sim.Time(pt.DelayNs),
			Probability: pt.Probability,
			Nth:         pt.Nth,
			Count:       pt.Count,
			ToNode:      pt.ToNode,
			FromNode:    pt.FromNode,
		})
	}
	cl, err := cluster.New(ccfg)
	if err != nil {
		return err
	}
	s.k, s.exec, s.cluster, s.lanes = cl.Kernel(), cl.Execute, cl, []serve.Lane{cl}
	for i := 0; i < cl.Nodes(); i++ {
		s.cards = append(s.cards, card{cl.Card(i), injectors[i]})
	}
	return nil
}

// MustNewSystem is NewSystem, panicking on error (examples, tests).
func MustNewSystem(opts Options) *System {
	s, err := NewSystem(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Handle drives the Streamer from inside the simulation, the way a user
// PE drives its four AXI4-Stream interfaces.
type Handle struct {
	p   *sim.Proc
	sys *System
}

// Execute runs fn as a simulation process and advances simulated time
// until it (and everything it triggered) completes. On a closed system fn
// runs outside the simulation: every transfer returns an error, Sleep does
// nothing and the clock stands still.
func (s *System) Execute(fn func(h *Handle)) {
	if s.closed {
		fn(&Handle{sys: s})
		return
	}
	s.exec(func(p *sim.Proc) { fn(&Handle{p: p, sys: s}) })
}

// Close stops every simulation process of the system — the card's service
// loops, or every cluster node and the coordinator — and drops its pending
// events, so a discarded System can be freed; without Close its suspended
// processes keep it reachable for the life of the program. Statistics stay
// readable. After Close every transfer returns an error, Serve reports one
// and Execute no longer simulates. Close is idempotent.
func (s *System) Close() {
	s.closed = true
	s.k.Close()
}

// Serve runs the configured open-loop serving workload (Options.Serve) to
// quiescence and returns the fleet's report. The client fleet starts at the
// current simulated time, sends every generated arrival (or sheds it at the
// paused client under overload) and the call returns once the last response
// has drained. A system serves once; a second call reports an error.
func (s *System) Serve() (ServeReport, error) {
	if s.serve == nil {
		return ServeReport{}, fmt.Errorf("snacc: Serve requires Options.Serve")
	}
	if s.closed {
		return ServeReport{}, errClosed
	}
	if err := s.serve.Start(s.k.Now()); err != nil {
		return ServeReport{}, err
	}
	s.k.Run(0)
	return s.serve.Report(), nil
}

// Now returns the current simulated time in nanoseconds.
func (h *Handle) Now() int64 {
	if h.p == nil {
		return int64(h.sys.k.Now())
	}
	return int64(h.p.Now())
}

// rawLane returns the system's untenanted lane: the Streamer's client or
// the cluster. A virtualized system has none, since raw access would
// bypass the tenant LBA windows.
func (s *System) rawLane() (serve.Lane, error) {
	if s.closed {
		return nil, errClosed
	}
	if s.hub != nil {
		return nil, fmt.Errorf("snacc: Streamer is virtualized (Options.Tenants); use TenantRead/TenantWrite")
	}
	return s.lanes[0], nil
}

// raw validates a transfer's shape and returns the untenanted lane. The
// Streamer and the cluster coordinator would otherwise fail inside a
// simulation process, where the caller cannot recover.
func (h *Handle) raw(addr uint64, n int64, write bool) (serve.Lane, error) {
	if addr%512 != 0 || n%512 != 0 || n < 0 || (n == 0 && !write) {
		return nil, fmt.Errorf("snacc: bad transfer %d@%#x: address and length must be multiples of 512, and a read must not be empty", n, addr)
	}
	return h.sys.rawLane()
}

// tenant returns tenant i's client, or an error when the system has no
// tenants or the index is out of range.
func (h *Handle) tenant(i int) (serve.Lane, error) {
	if h.sys.closed {
		return nil, errClosed
	}
	if h.sys.hub == nil {
		return nil, fmt.Errorf("snacc: no tenants configured (set Options.Tenants)")
	}
	if i < 0 || i >= len(h.sys.lanes) {
		return nil, fmt.Errorf("snacc: tenant %d out of range (%d configured)", i, len(h.sys.lanes))
	}
	return h.sys.lanes[i], nil
}

// WriteErr stores data at the given device byte address (512-aligned,
// length a multiple of 512) and waits for the write's completion. In
// cluster mode the address is a cluster-logical byte address and the write
// replicates to R nodes, acknowledging at the configured quorum. Every
// failure comes back as an error: a bad transfer shape, a virtualized
// system, the worst terminal NVMe status across the write's pieces, and in
// cluster mode a quorum failure or a transfer past Capacity. An empty
// write is acknowledged with nil.
func (h *Handle) WriteErr(addr uint64, data []byte) error {
	return h.write(addr, int64(len(data)), data)
}

// WriteTimed is a timing-only WriteErr of n bytes.
func (h *Handle) WriteTimed(addr uint64, n int64) error { return h.write(addr, n, nil) }

func (h *Handle) write(addr uint64, n int64, data []byte) error {
	l, err := h.raw(addr, n, true)
	if err != nil {
		return err
	}
	return l.WriteErr(h.p, addr, n, data)
}

// ReadErr returns n bytes from the given device byte address. In cluster
// mode each chunk is served by its primary replica, failing over to the
// others on error or timeout. It fails where WriteErr does, and with a
// terminal NVMe error or, in cluster mode, a read no replica could serve.
// What such a failed read returns differs by mode: a single system returns
// the bytes of the pieces that succeeded, packed in order, so the buffer
// falls short of n; a cluster returns all n bytes, with zeros where a
// piece failed.
func (h *Handle) ReadErr(addr uint64, n int64) ([]byte, error) {
	l, err := h.raw(addr, n, false)
	if err != nil {
		return nil, err
	}
	return l.ReadErr(h.p, addr, n)
}

// ReadTimed is a timing-only ReadErr of n bytes: the data is drained, not
// collected.
func (h *Handle) ReadTimed(addr uint64, n int64) error {
	l, err := h.raw(addr, n, false)
	if err != nil {
		return err
	}
	l.ReadAsync(h.p, addr, n)
	_, err = l.DrainRead(h.p)
	return err
}

// TenantWrite stores data at a tenant-relative device byte address through
// tenant's virtual stream pair. Addresses are relative to the tenant's LBA
// window; out-of-window or unaligned requests return the per-tenant
// rejection error without touching the device. Like every Tenant* method it
// returns an error, never panics, when the system has no tenants or the
// index is out of range.
func (h *Handle) TenantWrite(tenant int, addr uint64, data []byte) error {
	return h.tenantWrite(tenant, addr, int64(len(data)), data)
}

// TenantWriteTimed is a timing-only TenantWrite of n bytes.
func (h *Handle) TenantWriteTimed(tenant int, addr uint64, n int64) error {
	return h.tenantWrite(tenant, addr, n, nil)
}

func (h *Handle) tenantWrite(tenant int, addr uint64, n int64, data []byte) error {
	c, err := h.tenant(tenant)
	if err != nil {
		return err
	}
	return c.WriteErr(h.p, addr, n, data)
}

// TenantRead returns n bytes from a tenant-relative device byte address,
// surfacing window rejections and terminal NVMe errors.
func (h *Handle) TenantRead(tenant int, addr uint64, n int64) ([]byte, error) {
	c, err := h.tenant(tenant)
	if err != nil {
		return nil, err
	}
	return c.ReadErr(h.p, addr, n)
}

// Sleep advances this process by d nanoseconds of simulated time. It does
// nothing once the system is closed.
func (h *Handle) Sleep(d int64) {
	if !h.sys.closed {
		h.p.Sleep(sim.Time(d))
	}
}

// Spans returns the completed command spans traced so far (nil without
// Options.Trace).
func (h *Handle) Spans() []Span { return h.sys.Spans() }

// Trace returns the span tracer, or nil when the system was built without
// Options.Trace. The tracer exposes per-stage latency histograms, span
// accounting, and the global breaker/reset/death event timeline. A cluster
// has one tracer per node and no system tracer, so Trace stays nil in
// cluster mode; use Spans, StageLatency and CommandLatency there.
func (s *System) Trace() *obs.Tracer {
	if len(s.cards) > 1 {
		return nil
	}
	return s.cards[0].Tracer
}

// Spans returns the completed command spans traced so far, in completion
// order (nil without Options.Trace). In cluster mode the spans of every
// node tracer are concatenated in node order, each stamped with its node
// identity (Span.Node).
func (s *System) Spans() []Span {
	var out []Span
	for _, c := range s.cards {
		out = append(out, c.Tracer.Spans()...)
	}
	return out
}

// StageLatency returns the latency histogram of the transition into stage
// st, or nil without Options.Trace or for an unknown stage. It is a
// snapshot, merging the node tracers' histograms in node order in cluster
// mode.
func (s *System) StageLatency(st SpanStage) *LatencyHist {
	return s.mergeHists(func(t *obs.Tracer) *obs.Hist { return t.StageHist(st) })
}

// CommandLatency returns the end-to-end (accepted → retired) latency
// histogram for the given direction, or nil without Options.Trace; a
// snapshot like StageLatency.
func (s *System) CommandLatency(write bool) *LatencyHist {
	return s.mergeHists(func(t *obs.Tracer) *obs.Hist { return t.E2E(write) })
}

func (s *System) mergeHists(pick func(*obs.Tracer) *obs.Hist) *LatencyHist {
	out := &LatencyHist{}
	for _, c := range s.cards {
		h := pick(c.Tracer)
		if h == nil {
			return nil
		}
		out.Merge(h)
	}
	return out
}

// BoundaryTrace returns the staging-buffer-boundary PCIe tracer, or nil
// unless Options.Trace.Boundary was set.
func (s *System) BoundaryTrace() *pcie.Tracer { return s.boundary }

// Stats is a snapshot of system counters.
type Stats struct {
	// Commands submitted/retired by the Streamer and errors seen.
	CommandsSubmitted int64
	CommandsRetired   int64
	CommandErrors     int64
	// Recovery accounting: bounded resubmissions, watchdog expirations,
	// commands failed terminally, and malformed/duplicate completions.
	CommandRetries  int64
	CommandTimeouts int64
	CommandAborts   int64
	ProtocolErrors  int64
	// FaultsInjected counts injector firings (0 without Options.Faults).
	FaultsInjected int64
	// Crash-recovery ladder accounting: breaker trips, controller resets
	// issued, in-flight commands replayed after a reset, cumulative
	// nanoseconds from breaker trip to resumed submission, and whether the
	// controller was declared dead.
	BreakerTrips     int64
	ControllerResets int64
	CommandsReplayed int64
	RecoveryTimeNs   int64
	ControllerDead   bool
	// Multi-queue / doorbell-coalescing accounting: total doorbell writes
	// posted over PCIe (SQ tail + CQ head), coalesced CQ-head batches, and
	// the per-I/O-queue in-flight high-water marks (one entry per queue
	// pair; a single-entry slice in the default configuration).
	DoorbellWrites   int64
	CQBatches        int64
	IOQueueDepthPeak []int64
	// Span accounting (all 0 without Options.Trace): spans opened and
	// closed (equal once the workload drains — the core tracing
	// invariant), completed spans dropped past the retention limit, and
	// pipeline events that arrived after their command resolved.
	SpansOpened     int64
	SpansClosed     int64
	SpansDropped    int64
	TraceLateEvents int64
	// Payload byte counters.
	BytesToPE   int64
	BytesFromPE int64
	// PCIe payload delivered into each port.
	PCIeCardRx int64
	PCIeSSDRx  int64
	PCIeHostRx int64
	// Simulated time elapsed since the system was built.
	SimTime int64
	// SimEvents counts discrete-event executions (simulator work).
	SimEvents uint64
	// Tenants holds one per-tenant counter snapshot per configured tenant
	// (nil without Options.Tenants). Completed tenant payload sums match the
	// global BytesToPE / BytesFromPE counters.
	Tenants []TenantStats
	// Scale-out accounting (all zero without Options.Cluster): node death
	// declarations and probed rejoins, read failovers, payload copied by
	// background re-replication, cumulative nanoseconds any chunk held
	// fewer live replicas than the cluster could sustain, the current
	// under-replicated chunk count (0 once repair has caught up), and the
	// nodes whose controllers are terminally dead.
	NodeDeaths            int64
	NodeRejoins           int64
	Failovers             int64
	ReReplicatedBytes     int64
	DegradedWindowNs      int64
	UnderReplicatedChunks int64
	DeadNodes             []int
}

// Stats snapshots the system counters. Counters sum over the cluster's
// nodes; IOQueueDepthPeak takes each queue's maximum.
func (s *System) Stats() Stats {
	out := Stats{
		SimTime:   int64(s.k.Now()),
		SimEvents: s.k.EventsExecuted(),
		Tenants:   s.TenantStats(),
	}
	for _, c := range s.cards {
		if c.injector != nil {
			out.FaultsInjected += c.injector.Injected()
		}
		st := c.Streamer
		out.CommandsSubmitted += st.CommandsSubmitted()
		out.CommandsRetired += st.CommandsRetired()
		out.CommandErrors += st.CommandErrors()
		out.CommandRetries += st.CommandRetries()
		out.CommandTimeouts += st.CommandTimeouts()
		out.CommandAborts += st.CommandAborts()
		out.ProtocolErrors += st.ProtocolErrors()
		out.BreakerTrips += st.BreakerTrips()
		out.ControllerResets += st.ControllerResets()
		out.CommandsReplayed += st.CommandsReplayed()
		out.RecoveryTimeNs += int64(st.RecoveryTime())
		out.ControllerDead = out.ControllerDead || st.Dead()
		out.DoorbellWrites += st.DoorbellWrites()
		out.CQBatches += st.CQBatches()
		for q, peak := range st.QueueDepthHighWater() {
			if q == len(out.IOQueueDepthPeak) {
				out.IOQueueDepthPeak = append(out.IOQueueDepthPeak, peak)
			}
			out.IOQueueDepthPeak[q] = max(out.IOQueueDepthPeak[q], peak)
		}
		out.SpansOpened += c.Tracer.Opened()
		out.SpansClosed += c.Tracer.Closed()
		out.SpansDropped += c.Tracer.Dropped()
		out.TraceLateEvents += c.Tracer.LateEvents()
		out.BytesToPE += st.BytesToPE()
		out.BytesFromPE += st.BytesFromPE()
		out.PCIeCardRx += c.Platform.Card.PayloadRx()
		out.PCIeSSDRx += c.Dev.Port().PayloadRx()
		out.PCIeHostRx += c.Platform.Host.Port.PayloadRx()
	}
	if s.cluster != nil {
		cs := s.cluster.Stats()
		out.NodeDeaths = cs.NodeDeaths
		out.NodeRejoins = cs.Rejoins
		out.Failovers = cs.Failovers
		out.ReReplicatedBytes = cs.ReReplicatedBytes
		out.DegradedWindowNs = cs.DegradedWindowNs
		out.UnderReplicatedChunks = cs.UnderReplicatedChunks
		out.DeadNodes = cs.DeadNodes
	}
	return out
}

// TenantStats snapshots the per-tenant counters, or nil when the system was
// built without Options.Tenants.
func (s *System) TenantStats() []TenantStats {
	if s.hub == nil {
		return nil
	}
	return s.hub.Stats()
}

// TenantReadLatency returns tenant i's accept→complete read-latency
// histogram (the zero histogram without Options.Tenants or for an index
// outside them).
func (s *System) TenantReadLatency(i int) LatencyHist {
	if s.hub == nil {
		return LatencyHist{}
	}
	return s.hub.ReadLatency(i)
}

// TenantWriteLatency returns tenant i's accept→complete write-latency
// histogram (the zero histogram without Options.Tenants or for an index
// outside them).
func (s *System) TenantWriteLatency(i int) LatencyHist {
	if s.hub == nil {
		return LatencyHist{}
	}
	return s.hub.WriteLatency(i)
}

// FaultsInjected returns the number of faults the injectors have fired,
// summed over the cluster's nodes (0 without Options.Faults or
// ClusterOptions.NodeFaults).
func (s *System) FaultsInjected() int64 { return s.Stats().FaultsInjected }

// Capacity returns the simulated SSD capacity in bytes (in cluster mode,
// the cluster's logical capacity — one node's namespace, since replicas
// store chunks at their logical addresses).
func (s *System) Capacity() int64 { return s.cards[0].Dev.Config().NamespaceBytes }

// Resources returns the Table 1 FPGA resource estimate for this system's
// Streamer configuration (in cluster mode, for one node's Streamer).
func (s *System) Resources() fpga.Resources {
	return fpga.EstimateStreamer(s.cards[0].Streamer.Config())
}
