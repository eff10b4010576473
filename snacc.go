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
//   - Figure4a … Figure7, TableOne, Ablation…: regenerate every table and
//     figure of the paper's evaluation.
package snacc

import (
	"fmt"

	"snacc/internal/cluster"
	"snacc/internal/ethernet"
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
	// KernelWorkers selects the event-loop scheduler. 0 or 1 runs the plain
	// serial kernel — the exact paper timeline, byte for byte. Values above
	// 1 run the system under the sharded conservative-parallel scheduler
	// (sim.Shard) with that many workers. A single System is one
	// synchronously-coupled PCIe fabric and therefore one shard domain, so
	// extra workers cannot speed it up; the knob exists so rig-level
	// parallelism (bench.SetParallelism, sharding *across* systems) and
	// domain-level workers (sharding *within* a rig's event loop) compose,
	// and rigs with genuinely partitionable topology — the casestudy's
	// network front end, bench.KernelSweep's ethernet→pcie→nvme chain — get
	// real concurrency. Results are identical at any worker count.
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
	// TenantWrite; the raw Handle.Read / Write entry points panic (and
	// ReadErr / WriteErr return an error), since they would bypass the
	// isolation windows.
	Tenants []TenantConfig
	// Cluster, when non-nil, scales the system out: Nodes full
	// streamer+SSD stacks behind the simulated Ethernet switch, a
	// consistent-hash ring sharding the logical byte space with
	// replication factor Replication, quorum writes, read failover, and
	// background re-replication. Handle.Read / Write then address the
	// cluster's replicated logical space; Options.Faults and
	// Options.Tenants are incompatible with cluster mode (use
	// ClusterOptions.NodeFaults for per-node injection).
	Cluster *ClusterOptions
	// Serve, when non-nil, attaches the open-loop RPC serving tier: a
	// simulated client fleet sends length-prefixed read/write capsules over
	// the 100 G link into a frame decoder, connection table and dispatch
	// queue in front of the Streamer. System.Serve runs the workload to
	// quiescence and returns the fleet-side report. With Options.Tenants
	// set, requests are stamped with tenant IDs and dispatched through the
	// virtualized hub, one lane per tenant. Incompatible with
	// Options.Cluster. Under KernelWorkers > 1 the fleet runs in its own
	// shard domain joined to the FPGA side by wire-latency edges; reports
	// are identical at any worker count.
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
	// Server tuning, 0 = package defaults: dispatch-queue depth and batch,
	// capsules coalesced per Ethernet frame, and the per-fleet backlog
	// bound past which paused arrivals are shed.
	DispatchDepth int
	DispatchBatch int
	FrameBatch    int
	ClientBacklog int
}

// ServeReport is the serving tier's end-of-run accounting: arrivals
// generated/sent/shed, completions and goodput, due→response latency
// percentiles, dispatch-queue and connection-table high-water marks, the
// connection-state footprint in bytes, and 802.3x pause activity.
type ServeReport = serve.Report

// serveSeedDefault keeps default ServeOptions runs aligned with the bench
// suite's serve sweep.
const serveSeedDefault = 0x5ac5

// build translates the public options into the internal workload spec and
// tier config, filling defaults. Validation happens in serve.New.
func (o *ServeOptions) build(tenants int) (workload.OpenLoopSpec, serve.Config) {
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
	if spec.Clients == 0 {
		spec.Clients = 10_000
	}
	if spec.RatePerSec == 0 {
		spec.RatePerSec = 500e3
	}
	if spec.Ops == 0 {
		spec.Ops = 4000
	}
	if spec.ReadFraction == 0 {
		spec.ReadFraction = 0.7
	}
	if spec.IOBytes == 0 {
		spec.IOBytes = 4 * sim.KiB
	}
	if spec.SpanBytes == 0 {
		spec.SpanBytes = 256 * sim.MiB
	}
	if spec.ZipfTheta == 0 {
		spec.ZipfTheta = 0.9
	}
	if spec.ZipfBuckets == 0 {
		spec.ZipfBuckets = 64
	}
	if spec.Seed == 0 {
		spec.Seed = serveSeedDefault
	}
	for _, ph := range o.Phases {
		spec.Phases = append(spec.Phases, workload.PhaseSpec{
			RateScale: ph.RateScale,
			Duration:  sim.Time(ph.DurationNs),
		})
	}
	return spec, serve.Config{
		DispatchDepth: o.DispatchDepth,
		DispatchBatch: o.DispatchBatch,
		FrameBatch:    o.FrameBatch,
		ClientBacklog: o.ClientBacklog,
	}
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
	// index); a node's entry also arms its Streamer recovery ladder with
	// the same knobs as Options.Faults.
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
// programmed).
type System struct {
	kernel   *sim.Kernel
	eng      sim.Engine // kernel, or the shard it is a domain of (KernelWorkers > 1)
	plat     *tapasco.Platform
	dev      *nvme.Device
	st       *streamer.Streamer
	injector *fault.Injector     // nil unless Options.Faults was set
	tracer   *obs.Tracer         // nil unless Options.Trace was set
	boundary *pcie.Tracer        // nil unless Options.Trace.Boundary was set
	hub      *streamer.TenantHub // nil unless Options.Tenants was set
	// lanes holds one client on the Streamer's port without tenants, and
	// one per tenant's port with them (nil in cluster mode).
	lanes   []*streamer.Client
	cluster *cluster.Cluster // nil unless Options.Cluster was set
	serve   *serve.Tier      // nil unless Options.Serve was set
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
	if opts.Cluster != nil {
		if opts.Serve != nil {
			return nil, fmt.Errorf("snacc: Options.Serve is incompatible with Options.Cluster")
		}
		return newClusterSystem(opts, functional)
	}
	k := sim.NewKernel()
	var (
		eng               sim.Engine  = k
		fleetK            *sim.Kernel // serve client fleet's domain kernel (sharded runs)
		toServer, toFleet *sim.Edge
	)
	if opts.KernelWorkers > 1 {
		shard := sim.NewShard(opts.KernelWorkers)
		eng = shard
		sysD := shard.AddDomain("system")
		k = sysD.Kernel()
		if opts.Serve != nil {
			// The client fleet only talks to the FPGA side through the
			// Ethernet link, so it gets its own domain with wire-latency
			// lookahead on both edges.
			fleet := shard.AddDomain("clients")
			fleetK = fleet.Kernel()
			look := ethernet.DefaultConfig().EdgeLookahead()
			toServer = shard.MustConnect(fleet, sysD, look)
			toFleet = shard.MustConnect(sysD, fleet, look)
		}
	}
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
	st := node.AddStreamer(ssd, stCfg)
	var injector *fault.Injector
	if opts.Faults != nil {
		injector = buildInjector(opts.Faults)
		injector.Attach(ssd.Dev)
	}
	var tracer *obs.Tracer
	var boundary *pcie.Tracer
	if opts.Trace != nil {
		tracer = obs.NewTracer(opts.Trace.SpanLimit)
		node.Trace(tracer)
		if opts.Trace.Boundary {
			boundary = node.Platform.AttachBoundaryTracer(st)
		}
	}
	if err := node.Boot(eng); err != nil {
		return nil, err
	}
	sys := &System{kernel: k, eng: eng, plat: node.Platform, dev: ssd.Dev, st: st,
		injector: injector, tracer: tracer, boundary: boundary}
	if len(opts.Tenants) == 0 {
		sys.lanes = []*streamer.Client{streamer.NewClient(st)}
	} else {
		hub, err := streamer.NewTenantHub(k, st, opts.Tenants, streamer.HubOptions{})
		if err != nil {
			return nil, err
		}
		sys.hub = hub
		for i := 0; i < hub.Tenants(); i++ {
			sys.lanes = append(sys.lanes, hub.Client(i))
		}
	}
	if opts.Serve != nil {
		spec, cfg := opts.Serve.build(len(opts.Tenants))
		lanes := make([]serve.Lane, len(sys.lanes))
		for i, c := range sys.lanes {
			lanes[i] = c
		}
		var tier *serve.Tier
		var err error
		if fleetK != nil {
			tier, err = serve.NewCross(fleetK, k, toServer, toFleet, cfg, spec, lanes)
		} else {
			tier, err = serve.New(k, cfg, spec, lanes)
		}
		if err != nil {
			return nil, err
		}
		sys.serve = tier
	}
	return sys, nil
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

// newClusterSystem assembles a replicated multi-node system behind the
// simulated Ethernet switch (Options.Cluster).
func newClusterSystem(opts Options, functional bool) (*System, error) {
	if len(opts.Tenants) > 0 {
		return nil, fmt.Errorf("snacc: Options.Tenants is incompatible with Options.Cluster")
	}
	if opts.Faults != nil {
		return nil, fmt.Errorf("snacc: Options.Faults is incompatible with Options.Cluster (use ClusterOptions.NodeFaults)")
	}
	if opts.Trace != nil && opts.Trace.Boundary {
		return nil, fmt.Errorf("snacc: Trace.Boundary is not supported in cluster mode")
	}
	co := opts.Cluster
	for nd, f := range co.NodeFaults {
		if f != nil && f.CrashEveryNCmds == 1 {
			return nil, fmt.Errorf("snacc: node %d: CrashEveryNCmds must be >= 2", nd)
		}
	}
	ccfg := cluster.DefaultConfig(co.Nodes, co.Replication, co.Quorum)
	ccfg.ChunkBytes = co.ChunkBytes
	ccfg.KernelWorkers = opts.KernelWorkers
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
	if len(co.NodeFaults) > 0 {
		faults := co.NodeFaults
		ccfg.NodeInjector = func(node int) *fault.Injector {
			f := faults[node]
			if f == nil {
				return nil
			}
			return buildInjector(f)
		}
		ccfg.StreamerTune = func(node int, cfg *streamer.Config) {
			if f := faults[node]; f != nil {
				applyFaultRecovery(cfg, f)
			}
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
		return nil, err
	}
	return &System{cluster: cl}, nil
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
// until it (and everything it triggered) completes, under whichever
// scheduler Options.KernelWorkers selected.
func (s *System) Execute(fn func(h *Handle)) {
	if s.cluster != nil {
		s.cluster.Execute(func(p *sim.Proc) {
			fn(&Handle{p: p, sys: s})
		})
		return
	}
	s.kernel.Spawn("app", func(p *sim.Proc) {
		fn(&Handle{p: p, sys: s})
	})
	s.eng.Run(0)
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
	if err := s.serve.Start(s.eng.Now()); err != nil {
		return ServeReport{}, err
	}
	s.eng.Run(0)
	return s.serve.Report(), nil
}

// KernelWorkers returns the sharded scheduler's worker budget, or 1 when
// the system runs on the plain serial kernel.
func (s *System) KernelWorkers() int {
	if s.cluster != nil {
		return s.cluster.KernelWorkers()
	}
	if shard, ok := s.eng.(*sim.Shard); ok {
		return shard.Workers()
	}
	return 1
}

// Now returns the current simulated time in nanoseconds.
func (h *Handle) Now() int64 { return int64(h.p.Now()) }

// raw returns the untenanted Streamer's client, or an error when the
// system has no single raw Streamer: a virtualized system (raw access would
// bypass the tenant LBA windows) or a cluster.
func (s *System) raw() (*streamer.Client, error) {
	switch {
	case s.hub != nil:
		return nil, fmt.Errorf("snacc: Streamer is virtualized (Options.Tenants); use TenantRead/TenantWrite")
	case s.cluster != nil:
		return nil, fmt.Errorf("snacc: a cluster has no raw Streamer (Options.Cluster)")
	}
	return s.lanes[0], nil
}

// tenant returns tenant i's client, or an error when the system has no
// tenants or the index is out of range.
func (h *Handle) tenant(i int) (*streamer.Client, error) {
	if h.sys.hub == nil {
		return nil, fmt.Errorf("snacc: no tenants configured (set Options.Tenants)")
	}
	if i < 0 || i >= len(h.sys.lanes) {
		return nil, fmt.Errorf("snacc: tenant %d out of range (%d configured)", i, len(h.sys.lanes))
	}
	return h.sys.lanes[i], nil
}

// checkShape validates a transfer before it reaches the model: the address
// and the length must be multiples of 512, and only a write may be empty.
// The Streamer and the cluster coordinator would otherwise fail inside a
// simulation process, where the caller cannot recover.
func checkShape(addr uint64, n int64, write bool) error {
	if addr%512 != 0 || n%512 != 0 || n < 0 || (n == 0 && !write) {
		return fmt.Errorf("snacc: bad transfer %d@%#x: address and length must be multiples of 512, and a read must not be empty", n, addr)
	}
	return nil
}

// route validates a transfer's shape and picks its path: the cluster when
// there is one, else the raw Streamer's client.
func (h *Handle) route(addr uint64, n int64, write bool) (*cluster.Cluster, *streamer.Client, error) {
	if err := checkShape(addr, n, write); err != nil {
		return nil, nil, err
	}
	if h.sys.cluster != nil {
		return h.sys.cluster, nil, nil
	}
	c, err := h.sys.raw()
	return nil, c, err
}

// must panics with err's message: the entry points without an error
// result report failures this way.
func must(err error) {
	if err != nil {
		panic(err.Error())
	}
}

// Write stores data at the given device byte address (512-aligned, length
// a multiple of 512) and waits for the Streamer's response token. In
// cluster mode the address is a cluster-logical byte address and the write
// replicates to R nodes, acknowledging at the configured quorum. It panics
// on a bad transfer shape, on a virtualized system and on a cluster quorum
// failure; terminal NVMe errors are discarded (use WriteErr).
func (h *Handle) Write(addr uint64, data []byte) {
	cl, c, err := h.route(addr, int64(len(data)), true)
	if cl != nil {
		err = cl.Write(h.p, addr, data)
	} else if c != nil {
		c.Write(h.p, addr, int64(len(data)), data)
	}
	must(err)
}

// WriteTimed performs a timing-only write of n bytes.
func (h *Handle) WriteTimed(addr uint64, n int64) {
	cl, c, err := h.route(addr, n, true)
	if cl != nil {
		err = cl.WriteTimed(h.p, addr, n)
	} else if c != nil {
		c.Write(h.p, addr, n, nil)
	}
	must(err)
}

// Read returns n bytes from the given device byte address. In cluster mode
// the read is served by the chunk's primary replica, failing over to the
// others on error or timeout. It panics where Write does, and on a short
// delivery (use ReadErr).
func (h *Handle) Read(addr uint64, n int64) []byte {
	cl, c, err := h.route(addr, n, false)
	var data []byte
	if cl != nil {
		data, err = cl.Read(h.p, addr, n)
	} else if c != nil {
		data = c.Read(h.p, addr, n)
	}
	must(err)
	return data
}

// ReadTimed performs a timing-only read of n bytes.
func (h *Handle) ReadTimed(addr uint64, n int64) {
	cl, c, err := h.route(addr, n, false)
	if cl != nil {
		_, err = cl.Read(h.p, addr, n)
	} else if c != nil {
		c.ReadAsync(h.p, addr, n)
		c.DrainRead(h.p)
	}
	must(err)
}

// ReadErr is Read returning every failure as an error instead of
// panicking: a bad transfer shape, a virtualized system, and terminal NVMe
// errors (after the Streamer has exhausted its retries) or, in cluster
// mode, a read no replica could serve. The returned data covers only the
// pieces that succeeded.
func (h *Handle) ReadErr(addr uint64, n int64) ([]byte, error) {
	cl, c, err := h.route(addr, n, false)
	switch {
	case err != nil:
		return nil, err
	case cl != nil:
		return cl.Read(h.p, addr, n)
	}
	return c.ReadErr(h.p, addr, n)
}

// WriteErr is Write returning every failure as an error instead of
// panicking: a bad transfer shape, a virtualized system, and the worst
// terminal NVMe status across the write's pieces (in cluster mode, a
// quorum failure). An empty write is acknowledged with nil.
func (h *Handle) WriteErr(addr uint64, data []byte) error {
	cl, c, err := h.route(addr, int64(len(data)), true)
	switch {
	case err != nil:
		return err
	case cl != nil:
		return cl.Write(h.p, addr, data)
	}
	return c.WriteErr(h.p, addr, int64(len(data)), data)
}

// TenantWrite stores data at a tenant-relative device byte address through
// tenant's virtual stream pair. Addresses are relative to the tenant's LBA
// window; out-of-window or unaligned requests return the per-tenant
// rejection error without touching the device. Like every Tenant* method it
// returns an error, never panics, when the system has no tenants or the
// index is out of range.
func (h *Handle) TenantWrite(tenant int, addr uint64, data []byte) error {
	c, err := h.tenant(tenant)
	if err != nil {
		return err
	}
	return c.WriteErr(h.p, addr, int64(len(data)), data)
}

// TenantWriteTimed is a timing-only TenantWrite of n bytes.
func (h *Handle) TenantWriteTimed(tenant int, addr uint64, n int64) error {
	c, err := h.tenant(tenant)
	if err != nil {
		return err
	}
	return c.WriteErr(h.p, addr, n, nil)
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

// Sleep advances this process by d nanoseconds of simulated time.
func (h *Handle) Sleep(d int64) { h.p.Sleep(sim.Time(d)) }

// Spans returns the completed command spans traced so far (nil without
// Options.Trace).
func (h *Handle) Spans() []Span { return h.sys.Spans() }

// Trace returns the span tracer, or nil when the system was built without
// Options.Trace. The tracer exposes per-stage latency histograms, span
// accounting, and the global breaker/reset/death event timeline. A cluster
// has one tracer per node and no system tracer, so Trace stays nil in
// cluster mode; use Spans, StageLatency and CommandLatency there.
func (s *System) Trace() *obs.Tracer { return s.tracer }

// Spans returns the completed command spans traced so far, in completion
// order (nil without Options.Trace). In cluster mode the spans of every
// node tracer are concatenated in node order, each stamped with its node
// identity (Span.Node).
func (s *System) Spans() []Span {
	if s.cluster != nil {
		return s.cluster.Spans()
	}
	return s.tracer.Spans()
}

// StageLatency returns the latency histogram of the transition into stage
// st, or nil without Options.Trace or for an unknown stage. In cluster mode
// it is a snapshot merging the node tracers' histograms in node order.
func (s *System) StageLatency(st SpanStage) *LatencyHist {
	if s.cluster != nil {
		return s.cluster.StageHist(st)
	}
	return s.tracer.StageHist(st)
}

// CommandLatency returns the end-to-end (accepted → retired) latency
// histogram for the given direction, or nil without Options.Trace. In
// cluster mode it is a snapshot merging the node tracers' histograms in
// node order.
func (s *System) CommandLatency(write bool) *LatencyHist {
	if s.cluster != nil {
		return s.cluster.E2E(write)
	}
	return s.tracer.E2E(write)
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

// Stats snapshots the system counters.
func (s *System) Stats() Stats {
	if s.cluster != nil {
		return s.clusterStats()
	}
	return Stats{
		CommandsSubmitted: s.st.CommandsSubmitted(),
		CommandsRetired:   s.st.CommandsRetired(),
		CommandErrors:     s.st.CommandErrors(),
		CommandRetries:    s.st.CommandRetries(),
		CommandTimeouts:   s.st.CommandTimeouts(),
		CommandAborts:     s.st.CommandAborts(),
		ProtocolErrors:    s.st.ProtocolErrors(),
		FaultsInjected:    s.FaultsInjected(),
		BreakerTrips:      s.st.BreakerTrips(),
		ControllerResets:  s.st.ControllerResets(),
		CommandsReplayed:  s.st.CommandsReplayed(),
		RecoveryTimeNs:    int64(s.st.RecoveryTime()),
		ControllerDead:    s.st.Dead(),
		DoorbellWrites:    s.st.DoorbellWrites(),
		CQBatches:         s.st.CQBatches(),
		IOQueueDepthPeak:  s.st.QueueDepthHighWater(),
		SpansOpened:       s.tracer.Opened(),
		SpansClosed:       s.tracer.Closed(),
		SpansDropped:      s.tracer.Dropped(),
		TraceLateEvents:   s.tracer.LateEvents(),
		BytesToPE:         s.st.BytesToPE(),
		BytesFromPE:       s.st.BytesFromPE(),
		PCIeCardRx:        s.plat.Card.PayloadRx(),
		PCIeSSDRx:         s.dev.Port().PayloadRx(),
		PCIeHostRx:        s.plat.Host.Port.PayloadRx(),
		SimTime:           int64(s.kernel.Now()),
		SimEvents:         s.kernel.EventsExecuted(),
		Tenants:           s.TenantStats(),
	}
}

// clusterStats maps the cluster's counters onto the system snapshot,
// summing the per-node Streamer counters into the shared fields.
func (s *System) clusterStats() Stats {
	cs := s.cluster.Stats()
	out := Stats{
		NodeDeaths:            cs.NodeDeaths,
		NodeRejoins:           cs.Rejoins,
		Failovers:             cs.Failovers,
		ReReplicatedBytes:     cs.ReReplicatedBytes,
		DegradedWindowNs:      cs.DegradedWindowNs,
		UnderReplicatedChunks: cs.UnderReplicatedChunks,
		DeadNodes:             cs.DeadNodes,
		SimTime:               cs.SimTime,
		SimEvents:             cs.SimEvents,
	}
	for i := 0; i < s.cluster.Nodes(); i++ {
		st := s.cluster.Node(i)
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
		out.BytesToPE += st.BytesToPE()
		out.BytesFromPE += st.BytesFromPE()
		if st.Dead() {
			out.ControllerDead = true
		}
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

// FaultsInjected returns the number of faults the injector has fired, or 0
// when the system was built without Options.Faults.
func (s *System) FaultsInjected() int64 {
	if s.injector == nil {
		return 0
	}
	return s.injector.Injected()
}

// Capacity returns the simulated SSD capacity in bytes (in cluster mode,
// the cluster's logical capacity — one node's namespace, since replicas
// store chunks at their logical addresses).
func (s *System) Capacity() int64 {
	if s.cluster != nil {
		return s.cluster.Capacity()
	}
	return s.dev.Config().NamespaceBytes
}

// Resources returns the Table 1 FPGA resource estimate for this system's
// Streamer configuration (in cluster mode, for one node's Streamer).
func (s *System) Resources() fpga.Resources {
	if s.cluster != nil {
		return fpga.EstimateStreamer(s.cluster.Node(0).Config())
	}
	return fpga.EstimateStreamer(s.st.Config())
}
