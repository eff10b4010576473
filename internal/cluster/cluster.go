// Package cluster scales the single-node SNAcc system out over the
// simulated network: M streamer nodes — each a full TaPaSCo platform with
// its own NVMe SSD and Streamer — sit behind the internal/ethernet switch,
// and a coordinator speaks an NVMe-oF-style capsule protocol to them
// (protocol.go); all of them run on one simulation kernel. A
// consistent-hash ring (ring.go) shards the logical byte space in chunks
// with replication factor R: writes fan out to R replicas and acknowledge
// at a configurable quorum, reads prefer the primary replica and fail over
// on error or timeout.
//
// The robustness core reuses the existing recovery ladder end to end: node
// death (controller crash/hang/removal via internal/fault, or a link
// partition dropping frames via fault.LinkInjector) trips a per-node
// health tracker (alive → suspect → dead, echoing the Streamer's circuit
// breaker), traffic redirects to survivors, and a background repair
// process re-replicates under-replicated chunks onto the remaining nodes
// while foreground I/O continues. Recovered nodes rejoin through a bounded
// prober and resync through the same repair path.
package cluster

import (
	"fmt"

	"snacc/internal/ethernet"
	"snacc/internal/fault"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// DefaultChunkBytes is the replication granule: the unit of placement,
// locking, and repair. 256 KiB keeps a whole-chunk repair copy to one
// capsule exchange under the default Ethernet FIFO sizing.
const DefaultChunkBytes = 256 * sim.KiB

// Partition describes one link-level fault window against a node, mapped
// onto fault.LinkInjector rules at the affected receive sites. With
// neither ToNode nor FromNode set the partition applies in both
// directions.
type Partition struct {
	// Node is the partitioned node.
	Node int
	// From/Until bound the window on the simulation clock ([From, Until),
	// Until 0 = forever).
	From, Until sim.Time
	// Drop discards matched frames; otherwise they are delivered Delay
	// late.
	Drop  bool
	Delay sim.Time
	// Probability/Nth/Count select frames within the window the way
	// fault.LinkRule does; all zero matches every frame.
	Probability float64
	Nth         int64
	Count       int64
	// ToNode drops/delays frames the node receives; FromNode frames the
	// coordinator receives from it.
	ToNode, FromNode bool
}

// partitionLink builds node's injector for one direction of its link:
// toNode selects the frames the node receives, otherwise the frames the
// coordinator receives from it.
func partitionLink(seed uint64, parts []Partition, node int, toNode bool) *fault.LinkInjector {
	li := fault.NewLinkInjector(seed)
	dir := "from"
	if toNode {
		dir = "to"
	}
	for _, pt := range parts {
		// A partition that names neither direction applies to both.
		if pt.Node != node || (pt.ToNode != pt.FromNode && pt.ToNode != toNode) {
			continue
		}
		li.Add(fault.LinkRule{
			Name: fmt.Sprintf("partition-%s-node%d", dir, node),
			Drop: pt.Drop, Delay: pt.Delay,
			From: pt.From, Until: pt.Until,
			Probability: pt.Probability, Nth: pt.Nth, Count: pt.Count,
		})
	}
	return li
}

// Config parameterizes a cluster.
type Config struct {
	// Nodes is the node count M (>= 2).
	Nodes int
	// Replication is the copies-per-chunk factor R (1 <= R <= Nodes).
	Replication int
	// Quorum is the replica acks a write needs before acknowledging the
	// caller (1 <= Quorum <= Replication); the remaining acks resolve in
	// the background. When fewer than Quorum replicas of a chunk remain
	// alive, writes degrade to the survivors rather than failing.
	Quorum int
	// ChunkBytes is the placement/repair granule, a positive multiple of
	// 4 KiB up to 4 MiB. Default DefaultChunkBytes.
	ChunkBytes int64
	// Functional moves real payload bytes end to end.
	Functional bool
	// Seed derives each node's NAND jitter seed and the link injectors'
	// PRNG streams.
	Seed uint64
	// Variant/QueueDepth configure each node's Streamer.
	Variant    streamer.Variant
	QueueDepth int

	// RequestTimeout is the coordinator's per-capsule watchdog — it must
	// comfortably exceed a node's worst-case local recovery (crash detect
	// + controller reset + replay). Default 10 ms.
	RequestTimeout sim.Time
	// DeadAfter is the consecutive-failure count that declares a node
	// dead (the first failure marks it suspect). Default 2.
	DeadAfter int
	// ProbeInterval/ProbeLimit bound the rejoin prober for a dead node:
	// one liveness probe per interval, giving up after the limit.
	// Defaults 2 ms and 25.
	ProbeInterval sim.Time
	ProbeLimit    int

	// TraceSpans attaches a per-node span tracer (obs.Tracer with the
	// node identity stamped); SpanLimit caps each node's retention.
	TraceSpans bool
	SpanLimit  int

	// NodeInjector, when set, supplies a per-node NVMe fault injector
	// (nil for healthy nodes) — built per node, never shared, so each
	// node owns its PRNG stream.
	NodeInjector func(node int) *fault.Injector
	// StreamerTune, when set, adjusts a node's Streamer config after the
	// recovery ladder is armed (streamer.Config.ArmLadder).
	StreamerTune func(node int, cfg *streamer.Config)
	// Partitions lists link-level fault windows (see Partition).
	Partitions []Partition
}

// DefaultConfig returns a functional cluster config.
func DefaultConfig(nodes, replication, quorum int) Config {
	return Config{
		Nodes:       nodes,
		Replication: replication,
		Quorum:      quorum,
		Functional:  true,
	}
}

// validate fills defaults and rejects invalid shapes.
func (cfg *Config) validate() error {
	if cfg.Nodes < 2 {
		return fmt.Errorf("cluster: Nodes must be >= 2, got %d", cfg.Nodes)
	}
	if cfg.Replication < 1 || cfg.Replication > cfg.Nodes {
		return fmt.Errorf("cluster: Replication must be in [1, Nodes=%d], got %d", cfg.Nodes, cfg.Replication)
	}
	if cfg.Quorum < 1 || cfg.Quorum > cfg.Replication {
		return fmt.Errorf("cluster: Quorum must be in [1, Replication=%d], got %d", cfg.Replication, cfg.Quorum)
	}
	if cfg.ChunkBytes == 0 {
		cfg.ChunkBytes = DefaultChunkBytes
	}
	if cfg.ChunkBytes <= 0 || cfg.ChunkBytes%4096 != 0 || cfg.ChunkBytes > 4*sim.MiB {
		return fmt.Errorf("cluster: ChunkBytes must be a positive multiple of 4 KiB up to 4 MiB, got %d", cfg.ChunkBytes)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * sim.Millisecond
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 2
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 2 * sim.Millisecond
	}
	if cfg.ProbeLimit <= 0 {
		cfg.ProbeLimit = 25
	}
	for _, pt := range cfg.Partitions {
		if pt.Node < 0 || pt.Node >= cfg.Nodes {
			return fmt.Errorf("cluster: partition names node %d outside [0, %d)", pt.Node, cfg.Nodes)
		}
	}
	return nil
}

// Cluster is an assembled multi-node system.
type Cluster struct {
	cfg   Config
	eth   ethernet.Config
	k     *sim.Kernel
	sw    *ethernet.Switch
	nodes []*node
	co    *coordinator
	// reads/writes hold the outstanding async operations, oldest first.
	reads, writes []pending
	// capsules and responses recycle the records that carry them in
	// Frame.Meta.
	capsules  records[capsule]
	responses records[response]
}

// New builds and initializes a cluster: one full platform stack per node,
// the switch fabric, and the coordinator's daemons (response router,
// repair worker, node serve loops).
func New(cfg Config) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ecfg := ethernet.DefaultConfig()
	// A whole-chunk capsule must fit the receive FIFOs with room for
	// pause-reaction headroom, or large repair frames would drop even on
	// an idle link.
	if minFIFO := 4 * (cfg.ChunkBytes + capsuleBytes); ecfg.RxFIFOBytes < minFIFO {
		ecfg.RxFIFOBytes = minFIFO
	}

	cl := &Cluster{cfg: cfg, eth: ecfg, k: sim.NewKernel()}
	cl.sw = ethernet.NewSwitch(cl.k, "cluster-sw", ecfg, cfg.Nodes+1, 8*(cfg.ChunkBytes+capsuleBytes))
	comac := ethernet.NewMAC(cl.k, "coord", ecfg)
	cl.sw.Attach(0, comac)

	for i := 0; i < cfg.Nodes; i++ {
		n := newNode(cl, ecfg, i)
		cl.nodes = append(cl.nodes, n)
		cl.sw.Attach(i+1, n.mac)
	}

	// Drain node initialization (admin bring-up, queue creation) before
	// any traffic.
	cl.k.Run(0)
	for _, n := range cl.nodes {
		if n.initErr != nil {
			return nil, fmt.Errorf("cluster: node %d init: %w", n.id, n.initErr)
		}
	}

	cl.co = newCoordinator(cl, comac)
	for _, n := range cl.nodes {
		n.spawnServe()
	}
	cl.co.spawnDaemons()
	return cl, nil
}

// MustNew is New, panicking on error.
func MustNew(cfg Config) *Cluster {
	cl, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return cl
}

// Execute runs fn as a coordinator process and runs the kernel until
// everything it triggered drains.
func (cl *Cluster) Execute(fn func(p *sim.Proc)) {
	cl.k.At(cl.k.Now(), func() { cl.k.Spawn("app", fn) })
	cl.k.Run(0)
}

// checkRange rejects a transfer that does not fit the logical capacity
// before any capsule is sent: every replica would fail the command, and
// the health ladder would read that as node failures.
func (cl *Cluster) checkRange(addr uint64, n int64) error {
	if c := uint64(cl.Capacity()); n < 0 || addr > c || uint64(n) > c-addr {
		return fmt.Errorf("cluster: transfer %d@%#x exceeds the logical capacity %d", n, addr, c)
	}
	return nil
}

// WriteErr replicates n bytes of data (nil for timing-only; address and
// length multiples of 512) at the cluster's logical byte address,
// acknowledging at the configured quorum. Like every I/O method it must be
// called from a process on the cluster's kernel (see Execute).
func (cl *Cluster) WriteErr(p *sim.Proc, addr uint64, n int64, data []byte) error {
	if err := cl.checkRange(addr, n); err != nil {
		return err
	}
	return cl.co.write(p, addr, n, data)
}

// ReadErr returns n bytes from the cluster's logical byte address,
// preferring each chunk's primary replica and failing over to the others.
// On error the returned buffer holds the pieces that succeeded.
func (cl *Cluster) ReadErr(p *sim.Proc, addr uint64, n int64) ([]byte, error) {
	if err := cl.checkRange(addr, n); err != nil {
		return nil, err
	}
	return cl.co.read(p, addr, n)
}

// WriteAsync issues WriteErr in a process of its own and returns at once;
// data must stay unmodified until WaitWriteErr reports the write. Together
// with ReadAsync, DrainRead and WaitWriteErr it makes the cluster a
// workload and serving lane: completions return in issue order per
// direction.
func (cl *Cluster) WriteAsync(p *sim.Proc, addr uint64, n int64, data []byte) {
	cl.writes = append(cl.writes, cl.async(n, func(ap *sim.Proc) error {
		return cl.WriteErr(ap, addr, n, data)
	}))
}

// WaitWriteErr returns the error of the oldest outstanding WriteAsync.
func (cl *Cluster) WaitWriteErr(p *sim.Proc) error {
	_, err := await(p, &cl.writes)
	return err
}

// ReadAsync is WriteAsync's counterpart for ReadErr.
func (cl *Cluster) ReadAsync(p *sim.Proc, addr uint64, n int64) {
	cl.reads = append(cl.reads, cl.async(n, func(ap *sim.Proc) error {
		_, err := cl.ReadErr(ap, addr, n)
		return err
	}))
}

// DrainRead waits for the oldest outstanding ReadAsync, discards its data
// and returns the bytes it delivered (0 on error) and its error.
func (cl *Cluster) DrainRead(p *sim.Proc) (int64, error) { return await(p, &cl.reads) }

// pending is one outstanding async operation: its length and the one-slot
// channel its error lands on.
type pending struct {
	n    int64
	done *sim.Chan[error]
}

// async runs op as a process of its own.
func (cl *Cluster) async(n int64, op func(p *sim.Proc) error) pending {
	done := sim.NewChan[error](cl.k, 1)
	cl.k.Spawn("cluster.io", func(p *sim.Proc) { done.TryPut(op(p)) })
	return pending{n, done}
}

// await pops the oldest operation of q and waits for it: its length, or 0
// and its error.
func await(p *sim.Proc, q *[]pending) (int64, error) {
	op := (*q)[0]
	*q = (*q)[1:]
	if err := op.done.Get(p); err != nil {
		return 0, err
	}
	return op.n, nil
}

// Kernel returns the kernel the coordinator, the switch and every node run
// on; callers of the I/O methods must run on it too.
func (cl *Cluster) Kernel() *sim.Kernel { return cl.k }

// Capacity returns the cluster's logical byte capacity: one node's
// namespace (replicas store chunks at their logical addresses).
func (cl *Cluster) Capacity() int64 { return cl.nodes[0].Dev.Config().NamespaceBytes }

// Nodes returns the node count.
func (cl *Cluster) Nodes() int { return len(cl.nodes) }

// Card returns node i's card (instrumentation).
func (cl *Cluster) Card(i int) Card { return cl.nodes[i].Card }

// Stats snapshots the cluster counters. Call between Execute runs, not
// from inside one.
func (cl *Cluster) Stats() Stats {
	s := cl.co.stats()
	for _, n := range cl.nodes {
		s.LinkFramesDropped += n.rx.Dropped()
		s.LinkFramesDelayed += n.rx.Delayed()
		if n.Streamer.Dead() {
			s.DeadNodes = append(s.DeadNodes, n.id)
		}
	}
	return s
}

// Stats is a snapshot of cluster counters.
type Stats struct {
	// NodeDeaths counts health-ladder death declarations; Rejoins counts
	// probed recoveries; Probes counts liveness probes sent.
	NodeDeaths int64
	Rejoins    int64
	Probes     int64
	// Failovers counts read attempts abandoned on one replica and
	// redirected to another.
	Failovers int64
	// ReReplicatedBytes is the payload the background repair worker
	// copied to restore replication.
	ReReplicatedBytes int64
	// DegradedWindowNs is the cumulative time any chunk held fewer live
	// replicas than the cluster could sustain.
	DegradedWindowNs int64
	// UnderReplicatedChunks is the current count of such chunks (0 once
	// repair has caught up).
	UnderReplicatedChunks int64
	// Chunks is the total chunks placed.
	Chunks int64
	// RequestTimeouts counts coordinator watchdog expirations;
	// LateReplies counts node responses that arrived after their
	// watchdog fired.
	RequestTimeouts int64
	LateReplies     int64
	// LinkFramesDropped/Delayed count link-injector firings across all
	// receive sites.
	LinkFramesDropped int64
	LinkFramesDelayed int64
	// BytesWritten/BytesRead are caller-acknowledged logical payload
	// bytes (BytesWritten counts each logical byte once, independent of
	// the replication factor).
	BytesWritten int64
	BytesRead    int64
	// DeadNodes lists nodes whose controllers are terminally dead.
	DeadNodes []int
}
