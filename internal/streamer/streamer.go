package streamer

import (
	"fmt"

	"snacc/internal/axis"
	"snacc/internal/bufpool"
	"snacc/internal/nvme"
	"snacc/internal/obs"
	"snacc/internal/pcie"
	"snacc/internal/sim"
)

// ReadRequest is the metadata of a PE read command (§4.1: "the user PE
// issues a read command by sending the read address and length over one
// stream"). Addr and Len are byte quantities on the NVMe namespace, 512
// aligned.
type ReadRequest struct {
	Addr uint64
	Len  int64
	// Tenant attributes the command's spans to a tenant when the streamer
	// is fronted by a TenantHub. Zero for untenanted traffic.
	Tenant int
}

// WriteRequest is the metadata of the first beat on the write stream
// ("the first stream beat on the command interface represents the desired
// write address"); the data beats follow, delimited by TLAST.
type WriteRequest struct {
	Addr uint64
	// Tenant attributes the command's spans to a tenant when the streamer
	// is fronted by a TenantHub. Zero for untenanted traffic.
	Tenant int
}

// CmdError is the side-band (TUSER) metadata flagging a failed command on
// the PE-facing streams: a read piece that failed terminally delivers a
// zero-byte packet carrying CmdError in place of its payload, and a write
// response token carries CmdError when any piece of the write failed. It
// implements error so PE-side helpers can surface the flag directly.
type CmdError struct {
	Status uint16 // final NVMe status (nvme.StatusAbortRequested for a timeout)
	Addr   uint64 // device byte address of the failed piece
	Len    int64  // length of the failed piece
}

func (e CmdError) Error() string {
	return fmt.Sprintf("streamer: command at %#x+%d failed with NVMe status %#x", e.Addr, e.Len, e.Status)
}

// statusSeverity orders terminal statuses for the write-response token: any
// error outranks success, and a fatal status outranks one classified as
// transient. Ties keep the earliest failing piece, so the reported Addr/Len
// stay deterministic.
func statusSeverity(s uint16) int {
	switch {
	case s == nvme.StatusSuccess:
		return 0
	case nvme.RetryableStatus(s):
		return 1
	default:
		return 2
	}
}

// Streamer is one NVMe Streamer instance.
type Streamer struct {
	k    *sim.Kernel
	cfg  Config
	res  Resources
	port *pcie.Port

	// Port holds the PE-facing AXI4 streams (§4.1).
	Port

	// Device linkage, programmed by the host driver at initialization
	// (§4.6: "dynamically configuring the NVMe Streamer ... with the
	// global PCIe addresses of their queues and doorbell registers").
	lbaSize    int64
	configured bool

	// queues holds the per-queue-pair submission state. The default
	// configuration has exactly one; Config.IOQueues shards the submission
	// path across more, with round-robin placement below and the global
	// reorder buffer preserving in-order retirement across all of them.
	queues  []*ioQueue
	rrNext  int // next queue for round-robin command placement
	rrChunk int // commands placed on rrNext so far (chunked round-robin)

	// Controller-failure circuit breaker (crash-recovery ladder). The
	// breaker trips on BreakerThreshold consecutive watchdog expiries or a
	// fatal CSTS poll; the breaker proc then quiesces submissions, resets
	// the controller through resetFn, and replays the in-flight window.
	breakerOpen    bool
	dead           bool
	consecTimeouts int
	breakerSignal  *sim.Chan[struct{}]
	breakerWaiters []*sim.Proc
	resetFn        func(p *sim.Proc) error
	cstsAddr       uint64 // controller status register bus address
	cfsPollArmed   bool

	// Completion queue: a reorder buffer (§4.2, arrow ⑤). Entries are
	// indexed by CID.
	rob        []robEntry
	robHead    int
	robTailIdx int
	robLive    int
	robFree    []int // OutOfOrder mode slot freelist
	robWaiters []*sim.Proc

	retireProc *sim.Proc
	cqeSignal  *sim.Chan[struct{}]
	// sendQ decouples retirement from data delivery so the per-variant
	// drain latency pipelines across commands instead of throttling the
	// retire FSM.
	sendQ *sim.Chan[sendItem]
	// retryQ feeds the recovery stage: slots whose command must be
	// resubmitted after a retryable error or a completion timeout.
	retryQ *sim.Chan[retryReq]
	// cmdSeq stamps every (re)submission so stale watchdog timers and
	// stale retry requests can be recognized and discarded.
	cmdSeq uint64

	// Payload buffers.
	readRing  *byteRing
	writeRing *byteRing // nil when the buffer is shared (URAM)
	readPool  *slotPool // OutOfOrder mode
	writePool *slotPool

	// PRP register file for the DRAM variants (Figure 3).
	prpReg []prpRegVal

	submitFSM *sim.Server
	retireFSM *sim.Server

	// Stats.
	cmdsSubmitted  int64
	cmdsRetired    int64
	bytesToPE      int64
	bytesFromPE    int64
	errors         int64
	retries        int64
	timeouts       int64
	aborts         int64
	protocolErrors int64
	breakerTrips   int64
	ctrlResets     int64
	replayedCmds   int64
	recoveryTime   sim.Time
	doorbellWrites int64
	cqBatches      int64
	// Per-command submit→retire latency, by direction.
	readLat  sim.Histogram
	writeLat sim.Histogram

	// tr, when non-nil, traces every NVMe command as an obs.Span. All
	// instrumentation sites go through nil-safe obs methods, so the
	// untraced path costs one nil compare and allocates nothing.
	tr *obs.Tracer
}

// ioQueue is the per-queue-pair half of the submission path: the SQ FIFO
// the NVMe controller reads over PCIe (§4.2, arrow ②), the doorbell
// addresses the host driver programmed, and the CQ-head consumption cursor
// for completions this queue delivered into the shared reorder buffer.
//
// Slots are preallocated out of one backing array and encoded in place —
// the NVMe ring discipline (at most QueueDepth-1 commands in flight, which
// the *global* reorder-buffer gate enforces across all queues) guarantees a
// slot's entry has been fetched before the tail wraps onto it. sqFilled
// tracks which slots have ever held an entry, preserving the empty-slot
// fetch check the old nil-slice representation gave for free.
type ioQueue struct {
	sqRing   [][]byte
	sqFilled []bool
	sqTail   int

	sqDoorbell uint64
	cqDoorbell uint64

	// cqConsumed is the CQ head the device has been (or will be) told
	// about; cqPending counts consumed entries whose head-doorbell update
	// is still coalesced (DoorbellBatch > 1).
	cqConsumed int
	cqPending  int

	// dbPending counts submitted-but-unrung SQ tail advances (dbSlots
	// lists their reorder-buffer slots, for span stamps); the doorbell
	// rings with the final tail once dbPending reaches DoorbellBatch or
	// the debounced flush deadline passes. Each new pending command pushes
	// the deadline out (interrupt-coalescing style), so a steady stream
	// rings at the batch threshold and the timer only pays out when the
	// stream pauses.
	dbPending    int
	dbSlots      []int
	dbDeadline   sim.Time
	cqDeadline   sim.Time
	dbFlushArmed bool
	cqFlushArmed bool
	sqFlushFn    func() // preallocated timer closures (0 allocs/op path)
	cqFlushFn    func()

	// live/maxLive gauge this queue's in-flight depth (submitted, not yet
	// retired) and its high-water mark.
	live    int64
	maxLive int64
}

// robEntry is one in-flight NVMe command.
type robEntry struct {
	used        bool
	isWrite     bool
	bufOff      int64
	length      int64
	last        bool // final piece of the PE-level request
	done        bool
	status      uint16
	submittedAt sim.Time
	// Recovery state: the opcode and device address are kept so the SQE
	// can be rebuilt on resubmission; seq invalidates stale watchdog
	// timers and retry requests; hasCQE distinguishes a received error
	// completion from a synthesized timeout abort (only the former
	// consumed a CQ slot); timedOut marks a watchdog abort.
	op       uint8
	devAddr  uint64
	attempts int
	seq      uint64
	hasCQE   bool
	timedOut bool
	// queue is the I/O queue pair the command was placed on (round-robin
	// at first submission, sticky across retries and replays so recovery
	// stays deterministic); enqueued marks that the command actually went
	// on a queue (a fail-fast against a dead controller never does).
	queue    int
	enqueued bool
	wreq     *writeTracker
	// rreq/piece sequence the split pieces of one PE read so the
	// out-of-order configuration still streams data in order (§7: an
	// out-of-order approach "must appropriately handle large transfers
	// split across multiple commands while maintaining correct processing
	// order").
	rreq  *readTracker
	piece int
	// span follows the command through the pipeline (nil when untraced).
	span *obs.Span
}

// readTracker orders the pieces of one PE read request.
type readTracker struct {
	next int
}

// writeTracker groups the split pieces of one PE write. sawLast matters in
// the out-of-order configuration, where the final piece may retire before
// earlier ones. status accumulates the worst NVMe status across pieces so
// the response token cannot signal success when any piece failed.
type writeTracker struct {
	remaining int
	sawLast   bool
	status    uint16
	failAddr  uint64
	failLen   int64
}

// retryReq is one resubmission order for the recovery stage. seq pins the
// submission generation the order belongs to — a slot that was rescued by a
// late completion or already recycled is recognized and skipped.
type retryReq struct {
	slot int
	seq  uint64
}

// New builds a streamer, wires its window sub-regions into the FPGA BAR
// router, and starts its service processes.
func New(k *sim.Kernel, cfg Config, res Resources, port *pcie.Port, router *pcie.RangeRouter) *Streamer {
	if cfg.QueueDepth < 2 || cfg.QueueDepth > 1024 {
		panic("streamer: queue depth out of range")
	}
	if cfg.MaxCmdBytes%4096 != 0 {
		panic("streamer: command split size must be 4 KiB aligned")
	}
	if cfg.IOQueues > MaxIOQueues {
		panic("streamer: IOQueues exceeds the per-window control-region budget")
	}
	s := &Streamer{
		k:         k,
		cfg:       cfg,
		res:       res,
		port:      port,
		Port:      newPort(k, cfg.Name, cfg.StreamCfg),
		rob:       make([]robEntry, cfg.QueueDepth),
		prpReg:    make([]prpRegVal, cfg.QueueDepth),
		submitFSM: sim.NewServer(k),
		retireFSM: sim.NewServer(k),
		cqeSignal: sim.NewChan[struct{}](k, 1),
		sendQ:     sim.NewChan[sendItem](k, 8),
		lbaSize:   512,
	}
	// One SQ FIFO (full QueueDepth deep — the global in-flight gate bounds
	// every queue's occupancy) per queue pair, all slots carved from one
	// backing array. The flush closures are built once so arming a doorbell
	// coalescing timer allocates nothing per burst.
	s.queues = make([]*ioQueue, cfg.ioQueues())
	sqeBacking := make([]byte, len(s.queues)*cfg.QueueDepth*nvme.SQESize)
	for qi := range s.queues {
		q := &ioQueue{
			sqRing:   make([][]byte, cfg.QueueDepth),
			sqFilled: make([]bool, cfg.QueueDepth),
			dbSlots:  make([]int, 0, cfg.QueueDepth),
		}
		base := qi * cfg.QueueDepth * nvme.SQESize
		for i := range q.sqRing {
			q.sqRing[i] = sqeBacking[base+i*nvme.SQESize : base+(i+1)*nvme.SQESize]
		}
		qi := qi
		q.sqFlushFn = func() { s.sqFlushTimer(qi) }
		q.cqFlushFn = func() { s.cqFlushTimer(qi) }
		s.queues[qi] = q
	}
	if cfg.OutOfOrder {
		for i := 0; i < cfg.QueueDepth; i++ {
			s.robFree = append(s.robFree, i)
		}
		s.readPool = newSlotPool(cfg.ReadBufBytes, cfg.MaxCmdBytes)
		if cfg.WriteBufBytes > 0 {
			s.writePool = newSlotPool(cfg.WriteBufBytes, cfg.MaxCmdBytes)
		}
	} else {
		s.readRing = newByteRing(cfg.ReadBufBytes)
		if cfg.WriteBufBytes > 0 {
			s.writeRing = newByteRing(cfg.WriteBufBytes)
		}
	}
	s.installWindows(router)
	k.Spawn(cfg.Name+".readcmd", s.readCmdLoop)
	k.Spawn(cfg.Name+".write", s.writeLoop)
	s.retireProc = k.Spawn(cfg.Name+".retire", s.retireLoop)
	k.Spawn(cfg.Name+".send", s.sendLoop)
	if cfg.recoveryEnabled() {
		s.retryQ = sim.NewChan[retryReq](k, cfg.QueueDepth)
		k.Spawn(cfg.Name+".retry", s.retryLoop)
	}
	if cfg.breakerEnabled() {
		s.breakerSignal = sim.NewChan[struct{}](k, 1)
		k.Spawn(cfg.Name+".breaker", s.breakerLoop)
	}
	return s
}

// Configure programs the device doorbell addresses of the first I/O queue
// pair and the namespace LBA size; called by the host driver after it
// created the queue pair on the SSD. Multi-queue configurations program the
// remaining pairs with ConfigureQueue.
func (s *Streamer) Configure(sqDoorbell, cqDoorbell uint64, lbaSize int64) {
	s.queues[0].sqDoorbell = sqDoorbell
	s.queues[0].cqDoorbell = cqDoorbell
	s.lbaSize = lbaSize
	s.configured = true
}

// ConfigureQueue programs the doorbell addresses of I/O queue pair i
// (0-based streamer index; the device-side qid is the driver's business).
func (s *Streamer) ConfigureQueue(i int, sqDoorbell, cqDoorbell uint64) {
	s.queues[i].sqDoorbell = sqDoorbell
	s.queues[i].cqDoorbell = cqDoorbell
}

// IOQueues returns the number of I/O queue pairs this streamer drives.
func (s *Streamer) IOQueues() int { return len(s.queues) }

// ConfigureStatus programs the bus address of the device's controller
// status register (CSTS), enabling the fast crash-detect poll.
func (s *Streamer) ConfigureStatus(cstsAddr uint64) { s.cstsAddr = cstsAddr }

// SetResetHandler installs the controller-reset rung of the recovery
// ladder: fn must reset the controller and rebuild the admin + I/O queues
// (tapasco.Driver.ResetAndReattach), returning an error when the device is
// gone for good. It runs from the breaker's proc context.
func (s *Streamer) SetResetHandler(fn func(p *sim.Proc) error) { s.resetFn = fn }

// SetTracer attaches a span tracer; every NVMe command submitted afterwards
// is followed as one obs.Span from PE acceptance to in-order retirement.
// Striped arrays may share one tracer across members (same kernel, so the
// single-threaded discipline holds). Install it before traffic: commands
// already in flight stay untraced.
func (s *Streamer) SetTracer(tr *obs.Tracer) { s.tr = tr }

// Tracer returns the attached span tracer, or nil.
func (s *Streamer) Tracer() *obs.Tracer { return s.tr }

// OnDeviceEvent routes a device-side pipeline event (SQE fetch, execution
// start) onto the owning command's span. The CID is the reorder-buffer slot
// by construction; events naming an idle or already-done slot — the fetch of
// a zombie attempt after a late completion resolved the command, or a replay
// racing a pre-reset fetch — are counted as late and dropped, mirroring the
// protocol-error discipline of onCQE.
func (s *Streamer) OnDeviceEvent(cid uint16, stage obs.Stage, at sim.Time) {
	if s.tr == nil {
		return
	}
	slot := int(cid)
	if slot < 0 || slot >= len(s.rob) || !s.rob[slot].used || s.rob[slot].done || s.rob[slot].span == nil {
		s.tr.LateEvent()
		return
	}
	s.rob[slot].span.Mark(stage, at)
}

// Config returns the streamer configuration.
func (s *Streamer) Config() Config { return s.cfg }

// Resources returns the staging memories the streamer was built with.
func (s *Streamer) Resources() Resources { return s.res }

// WindowSize returns the BAR window span this streamer decodes.
func (s *Streamer) WindowSize() int64 { return s.windowSize() }

// Stats.

// CommandsSubmitted returns the NVMe commands issued.
func (s *Streamer) CommandsSubmitted() int64 { return s.cmdsSubmitted }

// CommandsRetired returns the NVMe commands retired in order.
func (s *Streamer) CommandsRetired() int64 { return s.cmdsRetired }

// BytesToPE returns payload bytes streamed to the PE (reads).
func (s *Streamer) BytesToPE() int64 { return s.bytesToPE }

// BytesFromPE returns payload bytes received from the PE (writes).
func (s *Streamer) BytesFromPE() int64 { return s.bytesFromPE }

// CommandErrors returns non-success completions received from the device,
// before recovery — a retried-to-success command still counts its failed
// attempts here.
func (s *Streamer) CommandErrors() int64 { return s.errors }

// CommandRetries returns resubmissions performed by the recovery stage.
func (s *Streamer) CommandRetries() int64 { return s.retries }

// CommandTimeouts returns watchdog deadline expiries (lost or overdue
// completions).
func (s *Streamer) CommandTimeouts() int64 { return s.timeouts }

// CommandAborts returns commands abandoned after recovery was exhausted and
// propagated to the PE as stream error flags.
func (s *Streamer) CommandAborts() int64 { return s.aborts }

// ProtocolErrors returns completion entries dropped as protocol violations
// (invalid or duplicate CID) instead of crashing the rig — under fault
// injection a resubmitted command's original completion may still arrive.
func (s *Streamer) ProtocolErrors() int64 { return s.protocolErrors }

// BreakerTrips returns how many times the controller-failure circuit
// breaker opened.
func (s *Streamer) BreakerTrips() int64 { return s.breakerTrips }

// ControllerResets returns controller reset attempts issued by the
// recovery ladder.
func (s *Streamer) ControllerResets() int64 { return s.ctrlResets }

// CommandsReplayed returns in-flight commands resubmitted from the
// retained staging buffers after a successful controller reset.
func (s *Streamer) CommandsReplayed() int64 { return s.replayedCmds }

// RecoveryTime returns total simulated time spent inside the recovery
// ladder (breaker trip → replay complete or death); divide by BreakerTrips
// for the mean time to recover.
func (s *Streamer) RecoveryTime() sim.Time { return s.recoveryTime }

// DoorbellWrites returns the total SQ-tail and CQ-head doorbell writes
// posted over PCIe. Without coalescing every command costs two (one tail
// ring, one head update); DoorbellBatch amortizes both sides, and
// DoorbellWrites / CommandsSubmitted is the amortization ratio the -queues
// sweep reports.
func (s *Streamer) DoorbellWrites() int64 { return s.doorbellWrites }

// CQBatches returns how many CQ-head doorbell updates acknowledged a
// coalesced run of drained completions (0 unless DoorbellBatch > 1).
func (s *Streamer) CQBatches() int64 { return s.cqBatches }

// QueueDepthHighWater returns the per-queue in-flight high-water marks
// (submitted, not yet retired), one entry per I/O queue pair.
func (s *Streamer) QueueDepthHighWater() []int64 {
	out := make([]int64, len(s.queues))
	for i, q := range s.queues {
		out[i] = q.maxLive
	}
	return out
}

// Dead reports whether the controller was declared permanently dead: the
// reset budget was exhausted (or no reset handler exists). All in-flight
// and future commands fail fast with nvme.StatusControllerUnavailable.
func (s *Streamer) Dead() bool { return s.dead }

// CommandLatencies returns the submit→retire latency distributions for
// read and write NVMe commands — the device-level view beneath the
// PE-level Figure 4c numbers.
func (s *Streamer) CommandLatencies() (read, write *sim.Histogram) {
	return &s.readLat, &s.writeLat
}

// BufferHighWater reports the peak occupancy of the read and write staging
// buffers — never exceeding their capacities, per §4.2's "We only request
// as much data as can fit in our available data buffer". For the shared
// URAM buffer both values refer to the single ring.
func (s *Streamer) BufferHighWater() (read, write int64) {
	if s.cfg.OutOfOrder {
		return 0, 0 // slot pools are trivially bounded
	}
	read = s.readRing.maxLive
	write = read
	if s.writeRing != nil {
		write = s.writeRing.maxLive
	}
	return read, write
}

// ---- command submission ----

// occupy serializes p on an FSM server for d.
func occupy(p *sim.Proc, srv *sim.Server, d sim.Time) {
	p.Sleep(srv.Occupy(d) - p.Now())
}

// robAlloc reserves a reorder-buffer slot, blocking while the in-flight
// window is full — the in-order issue gate of §7 ("issues new commands only
// after the first previous command is completed").
func (s *Streamer) robAlloc(p *sim.Proc) int {
	// Strict FIFO admission: only the head waiter may claim a slot, so the
	// slot sequence matches the order commands arrived from the PE ("all
	// commands are retired in the order they are received", §4.2).
	s.robWaiters = append(s.robWaiters, p)
	for {
		if s.robWaiters[0] == p && s.robAvailable() {
			s.robWaiters = s.robWaiters[1:]
			slot := s.robClaim()
			if len(s.robWaiters) > 0 && s.robAvailable() {
				s.robWaiters[0].Wake()
			}
			return slot
		}
		p.Park()
	}
}

func (s *Streamer) robAvailable() bool {
	// NVMe ring discipline: at most QueueDepth-1 commands may be in flight,
	// or the SQ tail doorbell wraps onto the unfetched head and the
	// controller sees an empty queue.
	if s.cfg.OutOfOrder {
		return len(s.robFree) > 1
	}
	return s.robLive < s.cfg.QueueDepth-1
}

func (s *Streamer) robClaim() int {
	s.robLive++
	if s.cfg.OutOfOrder {
		slot := s.robFree[0]
		s.robFree = s.robFree[1:]
		return slot
	}
	slot := s.robTailIdx
	s.robTailIdx = (s.robTailIdx + 1) % s.cfg.QueueDepth
	return slot
}

func (s *Streamer) robRelease(slot int) {
	if e := &s.rob[slot]; e.enqueued {
		s.queues[e.queue].live--
	}
	s.rob[slot] = robEntry{}
	s.robLive--
	if s.cfg.OutOfOrder {
		s.robFree = append(s.robFree, slot)
	} else {
		s.robHead = (s.robHead + 1) % s.cfg.QueueDepth
	}
	if len(s.robWaiters) > 0 {
		s.robWaiters[0].Wake()
	}
}

// allocReadBuf / allocWriteBuf block until payload space is available.
func (s *Streamer) allocReadBuf(p *sim.Proc, n int64) int64 {
	if s.cfg.OutOfOrder {
		return s.readPool.alloc(p, n)
	}
	return s.readRing.alloc(p, n)
}

func (s *Streamer) allocWriteBuf(p *sim.Proc, n int64) int64 {
	if s.cfg.OutOfOrder {
		if s.writePool != nil {
			return s.writePool.alloc(p, n)
		}
		return s.readPool.alloc(p, n)
	}
	if s.writeRing != nil {
		return s.writeRing.alloc(p, n)
	}
	return s.readRing.alloc(p, n)
}

func (s *Streamer) freeBuf(isWrite bool, off int64) {
	if s.cfg.OutOfOrder {
		switch {
		case isWrite && s.writePool != nil:
			s.writePool.release(off)
		default:
			s.readPool.release(off)
		}
		return
	}
	if isWrite && s.writeRing != nil {
		s.writeRing.free()
		return
	}
	s.readRing.free()
}

// submit builds the SQE for one ≤MaxCmdBytes piece, stores it in the SQ
// FIFO, and rings the device doorbell.
func (s *Streamer) submit(p *sim.Proc, slot int, op uint8, devAddr uint64, bufOff, n int64, isWrite, last bool, wreq *writeTracker, rreq *readTracker, piece int, span *obs.Span) {
	if !s.configured {
		panic("streamer: command before Configure (host initialization missing)")
	}
	// While the breaker holds the path quiesced the slot stays claimed but
	// unused, so the replay pass (which walks used entries) skips it.
	s.gateSubmit(p)
	e := &s.rob[slot]
	e.used = true
	e.submittedAt = s.k.Now()
	e.isWrite = isWrite
	e.bufOff = bufOff
	e.length = n
	e.last = last
	e.op = op
	e.devAddr = devAddr
	e.attempts = 0
	e.hasCQE = false
	e.timedOut = false
	e.wreq = wreq
	e.rreq = rreq
	e.piece = piece
	e.span = span
	if s.dead {
		// Terminal controller death: fail fast with the synthesized status
		// instead of ringing a dead doorbell — the command never goes on
		// the wire, so no watchdog, no retry, no CQ slot.
		span.Annotate(obs.AnnotFailFast, s.k.Now())
		e.done = true
		e.timedOut = true
		e.status = nvme.StatusControllerUnavailable
		s.cqeSignal.TryPut(struct{}{})
		return
	}
	// Round-robin queue placement, decided once per command: retries and
	// post-reset replays stay on the same queue, so recovery ordering is
	// deterministic and the device-side CID bookkeeping never migrates.
	// Placement advances in chunks of DoorbellBatch so consecutive commands
	// land on the same SQ and a coalesced batch can actually form there; at
	// batch 1 this degenerates to plain per-command round-robin.
	e.queue = s.rrNext
	s.rrChunk++
	if s.rrChunk >= s.cfg.doorbellBatch() {
		s.rrChunk = 0
		s.rrNext = (s.rrNext + 1) % len(s.queues)
	}
	e.enqueued = true
	q := s.queues[e.queue]
	q.live++
	if q.live > q.maxLive {
		q.maxLive = q.live
	}
	s.encodeAndRing(slot)
}

// encodeAndRing rebuilds the slot's SQE from its reorder-buffer entry,
// pushes it into the SQ FIFO at the tail, rings the device doorbell, and
// arms the completion watchdog. First submissions and recovery
// resubmissions both pass through here.
func (s *Streamer) encodeAndRing(slot int) {
	e := &s.rob[slot]
	e.done = false
	e.hasCQE = false
	e.timedOut = false
	e.status = nvme.StatusSuccess
	s.cmdSeq++
	e.seq = s.cmdSeq
	// A resubmission invalidates the previous attempt's device-path
	// timestamps; the span keeps only the attempt that completes.
	e.span.Resubmit()
	e.span.Mark(obs.StageSubmitted, s.k.Now())

	cmd := nvme.Command{Opcode: e.op, CID: uint16(slot), NSID: 1}
	cmd.SetSLBA(e.devAddr / uint64(s.lbaSize))
	cmd.SetNLB(uint32(e.length/s.lbaSize) - 1)
	cmd.PRP1 = s.bufPhys(e.isWrite, e.bufOff)
	switch {
	case e.length <= nvme.PageSize:
	case e.length <= 2*nvme.PageSize:
		cmd.PRP2 = s.bufPhys(e.isWrite, e.bufOff+nvme.PageSize)
	default:
		cmd.PRP2 = s.prpPointer(slot, e.isWrite, e.bufOff)
	}
	q := s.queues[e.queue]
	e.span.SetQueue(e.queue)
	cmd.MarshalInto(q.sqRing[q.sqTail])
	q.sqFilled[q.sqTail] = true
	q.sqTail = (q.sqTail + 1) % s.cfg.QueueDepth
	s.cmdsSubmitted++
	s.tr.CountCommand()
	if s.cfg.CmdTimeout > 0 {
		seq := e.seq
		s.k.After(s.cfg.CmdTimeout, func() { s.onDeadline(slot, seq) })
	}
	s.armCFSPoll()
	if s.cfg.doorbellBatch() <= 1 {
		// Uncoalesced: one tail ring per command, the paper's behavior.
		e.span.Mark(obs.StageDoorbell, s.k.Now())
		s.ringDoorbell(q.sqDoorbell, uint32(q.sqTail))
		return
	}
	// Coalesced: the ring is deferred until DoorbellBatch commands have
	// accumulated or the debounced flush deadline passes, and then carries
	// the final tail — one posted write covers the whole burst. Each new
	// command pushes the deadline out DoorbellFlush, so a steady stream
	// rings at the threshold and the timer only fires when the stream
	// pauses. The span's doorbell stamp records when the command's tail
	// actually went on the wire.
	q.dbPending++
	q.dbSlots = append(q.dbSlots, slot)
	if q.dbPending >= s.cfg.doorbellBatch() {
		s.flushSQ(e.queue)
		return
	}
	q.dbDeadline = s.k.Now() + s.cfg.DoorbellFlush
	if !q.dbFlushArmed {
		q.dbFlushArmed = true
		s.k.After(s.cfg.DoorbellFlush, q.sqFlushFn)
	}
}

// flushSQ rings queue qi's SQ tail doorbell with the final tail, covering
// every command coalesced since the previous ring. Mid-recovery the ring is
// withheld: the breaker's replay resets the queue cursors and re-rings (see
// replay), and a dead controller no longer listens at all.
func (s *Streamer) flushSQ(qi int) {
	q := s.queues[qi]
	if q.dbPending == 0 {
		return
	}
	if s.dead {
		q.dbPending = 0
		q.dbSlots = q.dbSlots[:0]
		return
	}
	if s.breakerOpen {
		return
	}
	q.dbPending = 0
	for _, slot := range q.dbSlots {
		e := &s.rob[slot]
		if e.used && !e.done && e.enqueued && e.queue == qi {
			e.span.Mark(obs.StageDoorbell, s.k.Now())
		}
	}
	q.dbSlots = q.dbSlots[:0]
	s.ringDoorbell(q.sqDoorbell, uint32(q.sqTail))
}

// sqFlushTimer is the deferred flush for a partial doorbell batch. If new
// commands pushed the deadline since the timer was armed, it re-arms for the
// remainder instead of flushing early (debounce).
func (s *Streamer) sqFlushTimer(qi int) {
	q := s.queues[qi]
	q.dbFlushArmed = false
	if q.dbPending == 0 {
		return
	}
	if d := q.dbDeadline - s.k.Now(); d > 0 {
		q.dbFlushArmed = true
		s.k.After(d, q.sqFlushFn)
		return
	}
	s.flushSQ(qi)
}

// ringDoorbell posts a 4-byte doorbell write through a recycled buffer. The
// device's register completer decodes the value synchronously at delivery,
// after which the buffer returns to the pool.
func (s *Streamer) ringDoorbell(addr uint64, val uint32) {
	s.doorbellWrites++
	s.tr.CountDoorbell()
	b := bufpool.Get(4)
	b[0], b[1], b[2], b[3] = byte(val), byte(val>>8), byte(val>>16), byte(val>>24)
	s.port.Write(addr, 4, pcie.Bytes(b), func() { bufpool.Put(b) })
}

// readCmdLoop services the PE's read command stream.
func (s *Streamer) readCmdLoop(p *sim.Proc) {
	p.SetDaemon(true)
	for {
		pkt := s.ReadCmd.Recv(p)
		req, ok := pkt.Meta.(ReadRequest)
		if !ok {
			panic("streamer: read command packet without ReadRequest metadata")
		}
		if req.Len <= 0 || req.Addr%uint64(s.lbaSize) != 0 || req.Len%s.lbaSize != 0 {
			panic(fmt.Sprintf("streamer: misaligned read request %#x+%d", req.Addr, req.Len))
		}
		// Split at the MaxCmdBytes boundary (§4.2) and pipeline pieces.
		tracker := &readTracker{}
		var off int64
		piece := 0
		for off < req.Len {
			n := s.cfg.MaxCmdBytes
			if n > req.Len-off {
				n = req.Len - off
			}
			span := s.tr.BeginTenant(nvme.OpRead, false, req.Addr+uint64(off), n, p.Now(), req.Tenant)
			occupy(p, s.submitFSM, s.cfg.SubmitOverhead)
			slot := s.robAlloc(p)
			bufOff := s.allocReadBuf(p, n)
			span.Mark(obs.StageBufReady, p.Now())
			s.submit(p, slot, nvme.OpRead, req.Addr+uint64(off), bufOff, n, false, off+n == req.Len, nil, tracker, piece, span)
			off += n
			piece++
		}
	}
}

// writeLoop services the PE's write stream: buffer incoming data, issue a
// command at each MaxCmdBytes boundary ("Large write commands are split at
// each 1 MB boundary", §4.2), and let the retire path send the response
// token once every piece finished.
func (s *Streamer) writeLoop(p *sim.Proc) {
	p.SetDaemon(true)
	for {
		head := s.WriteIn.Recv(p)
		req, ok := head.Meta.(WriteRequest)
		if !ok {
			panic("streamer: write stream must start with WriteRequest metadata")
		}
		if req.Addr%uint64(s.lbaSize) != 0 {
			panic(fmt.Sprintf("streamer: misaligned write address %#x", req.Addr))
		}
		tracker := &writeTracker{}
		devAddr := req.Addr
		done := head.Last // a bare header with TLAST is an empty write
		pieces := 0
		for !done {
			// Collect the piece from the stream first — its exact size is
			// known only at the 1 MiB boundary or TLAST — then reserve
			// buffer space of that size and stage the data (posted).
			// The PE's bytes are copied once, into fresh payload pages
			// that the staging memory then takes by reference; the
			// piece lets go of them once the staging memory holds them
			// or, for the host-DRAM variant, they are delivered over PCIe.
			pieceStart := p.Now()
			var filled int64
			var piece pcie.Payload
			for filled < s.cfg.MaxCmdBytes && !done {
				pkt := s.WriteIn.Recv(p)
				if pkt.Bytes <= 0 || filled+pkt.Bytes > s.cfg.MaxCmdBytes {
					panic("streamer: write data packets must tile the 1 MiB piece")
				}
				if s.cfg.Functional && !pkt.Data.IsNil() {
					if piece.IsNil() {
						piece = pcie.NewPages(0, int(s.cfg.MaxCmdBytes))
					}
					piece.WriteAt(pkt.Data.Bytes(), int(filled))
					pkt.Data.Release()
				}
				filled += pkt.Bytes
				s.bytesFromPE += pkt.Bytes
				done = pkt.Last
			}
			if filled%s.lbaSize != 0 {
				panic("streamer: write length must be a multiple of the LBA size")
			}
			span := s.tr.BeginTenant(nvme.OpWrite, true, devAddr, filled, pieceStart, req.Tenant)
			occupy(p, s.submitFSM, s.cfg.SubmitOverhead)
			slot := s.robAlloc(p)
			bufOff := s.allocWriteBuf(p, filled)
			var data pcie.Payload
			var consumed func()
			if !piece.IsNil() {
				data = piece.Slice(0, int(filled))
				consumed = piece.Release
			}
			s.bufWrite(p, true, bufOff, filled, data, consumed)
			span.Mark(obs.StageBufReady, p.Now())
			tracker.remaining++
			pieces++
			s.submit(p, slot, nvme.OpWrite, devAddr, bufOff, filled, true, done, tracker, nil, 0, span)
			devAddr += uint64(filled)
		}
		if pieces == 0 {
			// Empty write: acknowledge immediately.
			s.WriteResp.Send(p, axis.Packet{Last: true})
		}
	}
}

// ---- completion & retirement ----

// onCQE is invoked by the CQ window completer when the device posts a
// completion (arrow ⑤). Bits may set out of order; retirement stays in
// order unless the OutOfOrder extension is on.
//
// A completion naming an idle or already-done slot is dropped and counted,
// not fatal: NVMe hosts must tolerate spurious completions, and under fault
// injection the original completion of a timed-out, resubmitted command can
// legitimately arrive after the retry already resolved the slot.
func (s *Streamer) onCQE(qi int, cqe nvme.Completion) {
	slot := int(cqe.CID)
	if slot < 0 || slot >= len(s.rob) || !s.rob[slot].used || s.rob[slot].done {
		s.protocolErrors++
		s.tr.LateEvent()
		s.consumeCQE(qi)
		return
	}
	e := &s.rob[slot]
	e.done = true
	e.hasCQE = true
	e.status = cqe.Status
	e.span.Mark(obs.StageCQE, s.k.Now())
	// Any valid completion proves the controller is alive: the breaker's
	// consecutive-timeout count restarts.
	s.consecTimeouts = 0
	if cqe.Status != nvme.StatusSuccess {
		s.errors++
	}
	// Nudge the retire loop; extra signals coalesce in the 1-deep channel.
	s.cqeSignal.TryPut(struct{}{})
}

// InjectCQE delivers a raw completion entry to the first queue's reorder-
// buffer window exactly as the CQ window completer does — a hook for
// protocol-robustness tests.
func (s *Streamer) InjectCQE(cqe nvme.Completion) { s.onCQE(0, cqe) }

// consumeCQE advances queue qi's completion-queue head by one consumed
// entry. Every completion the device actually posted must pass through here
// exactly once — including protocol-error drops and error completions
// absorbed by the retry path — or the device's CQ-occupancy accounting
// drifts and completions stall on a phantom full queue. Timeout aborts
// never had a completion and must not ring.
//
// With DoorbellBatch > 1 the head-doorbell write itself is coalesced: it is
// posted once per drained run of up to DoorbellBatch entries, with a
// debounced timer backstop (each consume pushes the deadline out
// DoorbellFlush) guaranteeing the head never lags a paused pipeline by more
// than the flush window per entry. The device tolerates the lag by
// construction: at most QueueDepth-1 commands are ever in flight, which is
// exactly the CQ occupancy a stale head still leaves room for.
func (s *Streamer) consumeCQE(qi int) {
	q := s.queues[qi]
	q.cqConsumed = (q.cqConsumed + 1) % s.cfg.QueueDepth
	if s.cfg.doorbellBatch() > 1 {
		q.cqPending++
		if q.cqPending >= s.cfg.doorbellBatch() {
			s.flushCQ(qi)
			return
		}
		q.cqDeadline = s.k.Now() + s.cfg.DoorbellFlush
		if !q.cqFlushArmed {
			q.cqFlushArmed = true
			s.k.After(s.cfg.DoorbellFlush, q.cqFlushFn)
		}
		return
	}
	if s.breakerOpen || s.dead {
		// Mid-recovery the doorbell may hit a half-rebuilt (or absent)
		// controller; the CQ head re-syncs to zero at replay, and a dead
		// controller no longer counts occupancy at all.
		return
	}
	s.ringDoorbell(q.cqDoorbell, uint32(q.cqConsumed))
}

// flushCQ posts queue qi's coalesced CQ-head doorbell update, covering
// every entry consumed since the previous one.
func (s *Streamer) flushCQ(qi int) {
	q := s.queues[qi]
	if q.cqPending == 0 {
		return
	}
	q.cqPending = 0
	if s.breakerOpen || s.dead {
		return
	}
	s.cqBatches++
	s.ringDoorbell(q.cqDoorbell, uint32(q.cqConsumed))
}

// cqFlushTimer is the deferred CQ-head flush backstop, debounced the same
// way as sqFlushTimer: fresh consumes push the deadline, so a steady drain
// rings at the batch threshold and the timer pays out only at a pause.
func (s *Streamer) cqFlushTimer(qi int) {
	q := s.queues[qi]
	q.cqFlushArmed = false
	if q.cqPending == 0 {
		return
	}
	if d := q.cqDeadline - s.k.Now(); d > 0 {
		q.cqFlushArmed = true
		s.k.After(d, q.cqFlushFn)
		return
	}
	s.flushCQ(qi)
}

// onDeadline is the watchdog: fired CmdTimeout after the (re)submission
// stamped seq. A slot that was since completed or recycled is recognized by
// the stale seq and ignored.
func (s *Streamer) onDeadline(slot int, seq uint64) {
	e := &s.rob[slot]
	if !e.used || e.seq != seq || e.done {
		return
	}
	if s.dead || s.breakerOpen {
		// The breaker owns recovery: individual watchdogs stand down, which
		// is what bounds the per-command retry storm against a dead
		// controller. Every in-flight slot is resolved by replay or by
		// declareDead.
		return
	}
	s.timeouts++
	s.consecTimeouts++
	e.span.Annotate(obs.AnnotTimeout, s.k.Now())
	if s.cfg.BreakerThreshold > 0 && s.consecTimeouts >= s.cfg.BreakerThreshold {
		s.tripBreaker()
		return
	}
	if e.attempts < s.cfg.MaxRetries {
		e.attempts++
		// Invalidate the expired generation so a straggling completion
		// for it is dropped as a protocol error rather than racing the
		// resubmission.
		s.cmdSeq++
		e.seq = s.cmdSeq
		if !s.retryQ.TryPut(retryReq{slot: slot, seq: e.seq}) {
			panic("streamer: retry queue overflow")
		}
		return
	}
	// Recovery exhausted: synthesize an abort completion so the command
	// retires through the normal path and the error reaches the PE. No
	// CQE was received, so the CQ head doorbell must not advance.
	e.done = true
	e.timedOut = true
	e.status = nvme.StatusAbortRequested
	s.cqeSignal.TryPut(struct{}{})
}

// maybeRetry reschedules a slot whose command completed with a retryable
// error. Reports whether the slot was handed to the recovery stage instead
// of retiring.
func (s *Streamer) maybeRetry(slot int) bool {
	e := &s.rob[slot]
	if e.status == nvme.StatusSuccess || e.timedOut || s.dead {
		return false
	}
	if !nvme.RetryableStatus(e.status) || e.attempts >= s.cfg.MaxRetries {
		return false
	}
	e.attempts++
	// The error completion is absorbed here: consume its CQ slot and
	// clear the completion state before the command goes back out.
	if e.hasCQE {
		e.hasCQE = false
		s.consumeCQE(e.queue)
	}
	e.done = false
	e.status = nvme.StatusSuccess
	s.cmdSeq++
	e.seq = s.cmdSeq
	if !s.retryQ.TryPut(retryReq{slot: slot, seq: e.seq}) {
		panic("streamer: retry queue overflow")
	}
	return true
}

// retryLoop is the recovery stage: it paces resubmissions with exponential
// backoff and re-issues commands through the submission FSM. Orders whose
// generation went stale — a late completion rescued the command while the
// backoff ran — are skipped.
func (s *Streamer) retryLoop(p *sim.Proc) {
	p.SetDaemon(true)
	stale := func(rq retryReq) bool {
		e := &s.rob[rq.slot]
		return !e.used || e.seq != rq.seq || e.done
	}
	for {
		rq := s.retryQ.Get(p)
		if stale(rq) {
			continue
		}
		if d := s.backoff(s.rob[rq.slot].attempts); d > 0 {
			p.Sleep(d)
		}
		s.gateSubmit(p) // breaker quiesce
		if stale(rq) {
			continue
		}
		if s.dead {
			// The controller died while the order waited: resolve the slot
			// terminally instead of ringing a dead doorbell.
			e := &s.rob[rq.slot]
			e.span.Annotate(obs.AnnotFailFast, p.Now())
			e.done = true
			e.timedOut = true
			e.status = nvme.StatusControllerUnavailable
			s.cqeSignal.TryPut(struct{}{})
			continue
		}
		occupy(p, s.submitFSM, s.cfg.SubmitOverhead)
		if stale(rq) {
			continue
		}
		s.retries++
		s.rob[rq.slot].span.Annotate(obs.AnnotRetry, p.Now())
		s.encodeAndRing(rq.slot)
	}
}

// backoff returns the delay before resubmission attempt n (n ≥ 1):
// RetryBackoff doubling per attempt, capped at 256x.
func (s *Streamer) backoff(attempt int) sim.Time {
	if s.cfg.RetryBackoff <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift > 8 {
		shift = 8
	}
	return s.cfg.RetryBackoff << shift
}

// ---- controller-failure circuit breaker ----

// gateSubmit parks p while the breaker holds the submission path quiesced.
// A dead controller does not park: submissions proceed and fail fast.
func (s *Streamer) gateSubmit(p *sim.Proc) {
	for s.breakerOpen && !s.dead {
		s.breakerWaiters = append(s.breakerWaiters, p)
		p.Park()
	}
}

// tripBreaker opens the breaker and wakes the recovery proc. Idempotent
// while a recovery is already running.
func (s *Streamer) tripBreaker() {
	if s.breakerOpen || s.dead || s.breakerSignal == nil {
		return
	}
	s.breakerOpen = true
	s.breakerTrips++
	s.tr.Event(obs.AnnotBreakerTrip, s.k.Now())
	s.breakerSignal.TryPut(struct{}{})
}

// breakerLoop runs the detect→quiesce→reset→replay ladder. It needs a proc
// context because the reset handler issues blocking admin commands.
func (s *Streamer) breakerLoop(p *sim.Proc) {
	p.SetDaemon(true)
	for {
		s.breakerSignal.Get(p)
		s.recoverCtrl(p)
	}
}

// recoverCtrl is one recovery episode: reset the controller up to MaxResets
// times; on success replay the in-flight window, otherwise declare the
// controller dead. Either way the breaker closes and quiesced submitters
// resume (failing fast when dead).
func (s *Streamer) recoverCtrl(p *sim.Proc) {
	start := p.Now()
	ok := false
	for attempt := 0; attempt < s.cfg.MaxResets && s.resetFn != nil; attempt++ {
		s.ctrlResets++
		s.tr.Event(obs.AnnotReset, p.Now())
		if err := s.resetFn(p); err == nil {
			ok = true
			break
		}
	}
	if ok {
		s.replay(p)
	} else {
		s.declareDead()
	}
	s.recoveryTime += p.Now() - start
	s.consecTimeouts = 0
	s.breakerOpen = false
	w := s.breakerWaiters
	s.breakerWaiters = nil
	for _, wp := range w {
		wp.Wake()
	}
}

// replay resubmits the retained in-flight window after a controller reset:
// the rebuilt queues are empty, so the SQ FIFO restarts at slot 0 and the
// CQ head returns to 0, and every not-yet-completed command is re-encoded
// from its reorder-buffer entry — whose staging buffer is still allocated —
// in original submission order, preserving in-order retirement across the
// reset. Reads are simply reissued; writes reprogram the same LBAs from the
// same staged bytes, which is idempotent. Commands that completed before
// the crash keep their results and retire normally.
func (s *Streamer) replay(p *sim.Proc) {
	// The rebuilt queues start empty on every pair: SQ tails and CQ heads
	// return to zero, and doorbell batches coalesced before the crash are
	// discarded — their commands are in the in-flight window below and
	// re-coalesce as they re-encode.
	for _, q := range s.queues {
		q.sqTail = 0
		q.cqConsumed = 0
		q.cqPending = 0
		q.dbPending = 0
		q.dbSlots = q.dbSlots[:0]
	}
	// Completions received before the reset sit in the torn-down CQs:
	// retiring their commands must not advance the rebuilt queues' heads.
	for i := range s.rob {
		s.rob[i].hasCQE = false
	}
	for _, slot := range s.inflightOrder() {
		occupy(p, s.submitFSM, s.cfg.SubmitOverhead)
		s.replayedCmds++
		s.rob[slot].span.Annotate(obs.AnnotReplay, p.Now())
		s.encodeAndRing(slot)
	}
	// flushSQ withholds coalesced rings while the breaker is open (a stale
	// flush must not hit a half-rebuilt controller), but the replay itself
	// runs under the open breaker — force each queue's final tail out now so
	// the rebuilt controller sees the whole replayed window.
	for qi, q := range s.queues {
		if q.dbPending == 0 {
			continue
		}
		q.dbPending = 0
		for _, slot := range q.dbSlots {
			e := &s.rob[slot]
			if e.used && !e.done && e.enqueued && e.queue == qi {
				e.span.Mark(obs.StageDoorbell, p.Now())
			}
		}
		q.dbSlots = q.dbSlots[:0]
		s.ringDoorbell(q.sqDoorbell, uint32(q.sqTail))
	}
}

// inflightOrder lists the slots awaiting completion in their original
// submission order: ring order from the reorder-buffer head in the in-order
// configuration, slot order (== CID order of claiming) out of order.
func (s *Streamer) inflightOrder() []int {
	var order []int
	if s.cfg.OutOfOrder {
		for i := range s.rob {
			if s.rob[i].used && !s.rob[i].done {
				order = append(order, i)
			}
		}
		return order
	}
	for i, idx := 0, s.robHead; i < s.cfg.QueueDepth; i++ {
		if s.rob[idx].used && !s.rob[idx].done {
			order = append(order, idx)
		}
		idx = (idx + 1) % s.cfg.QueueDepth
	}
	return order
}

// declareDead resolves every in-flight command with the terminal
// controller-unavailable status. No CQE was received for them, so the CQ
// doorbell must not advance; subsequent submissions fail fast in submit.
func (s *Streamer) declareDead() {
	s.dead = true
	s.tr.Event(obs.AnnotDead, s.k.Now())
	for _, q := range s.queues {
		q.dbPending = 0
		q.dbSlots = q.dbSlots[:0]
		q.cqPending = 0
	}
	for i := range s.rob {
		e := &s.rob[i]
		if e.used && !e.done {
			e.span.Annotate(obs.AnnotDead, s.k.Now())
			e.done = true
			e.timedOut = true
			e.status = nvme.StatusControllerUnavailable
		}
	}
	s.cqeSignal.TryPut(struct{}{})
}

// armCFSPoll schedules the next controller-status poll. The poll is armed
// from submission activity and re-arms itself only while commands remain in
// flight, so an idle streamer schedules no recurring events and the kernel
// still drains.
func (s *Streamer) armCFSPoll() {
	if s.cfg.CFSPollInterval <= 0 || s.cfsPollArmed || s.dead || s.cstsAddr == 0 {
		return
	}
	s.cfsPollArmed = true
	s.k.After(s.cfg.CFSPollInterval, s.cfsPoll)
}

// cfsPoll reads CSTS and trips the breaker on a latched fatal status or an
// all-1s read (surprise removal) — crash detection without waiting out
// CmdTimeout.
func (s *Streamer) cfsPoll() {
	s.cfsPollArmed = false
	if s.dead || s.robLive == 0 {
		return
	}
	if s.breakerOpen {
		// Recovery in progress; resume polling afterwards.
		s.armCFSPoll()
		return
	}
	buf := bufpool.Get(4)
	s.port.Read(s.cstsAddr, 4, pcie.Bytes(buf), func() {
		v := uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24
		bufpool.Put(buf)
		if v == ^uint32(0) || v&nvme.CSTSFatal != 0 {
			s.tripBreaker()
		}
		s.armCFSPoll()
	})
}

// nextRetirable returns a retirable slot, or -1. The out-of-order
// configuration retires completions as they arrive, except that the pieces
// of one PE read must still stream in order.
func (s *Streamer) nextRetirable() int {
	if s.cfg.OutOfOrder {
		for i := range s.rob {
			e := &s.rob[i]
			if !e.used || !e.done {
				continue
			}
			if e.rreq != nil && e.piece != e.rreq.next {
				continue
			}
			return i
		}
		return -1
	}
	if s.robLive > 0 && s.rob[s.robHead].used && s.rob[s.robHead].done {
		return s.robHead
	}
	return -1
}

// retireLoop processes completions: strictly head-first in the in-order
// configuration ("While the completion bits may be set out-of-order, the
// NVMe Streamer processes them in-order", §4.2). Data draining and buffer
// release are delegated to the send stage so the retire FSM paces command
// turnover while drains pipeline behind it.
func (s *Streamer) retireLoop(p *sim.Proc) {
	p.SetDaemon(true)
	for {
		slot := s.nextRetirable()
		if slot < 0 {
			// Nothing retirable: park. Coalesced CQ-head updates stay armed
			// on their debounced timers and flush on their own.
			s.cqeSignal.Get(p)
			continue
		}
		if s.maybeRetry(slot) {
			continue
		}
		e := s.rob[slot] // copy; robRelease clears the entry
		if e.rreq != nil {
			e.rreq.next++
		}
		cost := s.cfg.RetireWriteCost
		if !e.isWrite {
			cost = s.retireReadCost()
			if s.cfg.OutOfOrder {
				cost = s.cfg.OOORetireReadCost
			}
		}
		occupy(p, s.retireFSM, cost)
		if e.status != nvme.StatusSuccess {
			s.aborts++
		}
		if e.isWrite && e.wreq != nil {
			e.wreq.remaining--
			if e.last {
				e.wreq.sawLast = true
			}
			if statusSeverity(e.status) > statusSeverity(e.wreq.status) {
				// The worst status seen across the write's pieces
				// decides the response.
				e.wreq.status = e.status
				e.wreq.failAddr = e.devAddr
				e.wreq.failLen = e.length
			}
			if e.wreq.remaining == 0 && e.wreq.sawLast {
				// ⑥b: completion token for the whole PE write, carrying
				// the worst status seen across the write's pieces.
				pkt := axis.Packet{Last: true}
				if e.wreq.status != nvme.StatusSuccess {
					pkt.Meta = CmdError{Status: e.wreq.status, Addr: e.wreq.failAddr, Len: e.wreq.failLen}
				}
				s.WriteResp.Send(p, pkt)
			}
		}
		// Buffer release stays strictly FIFO: the send stage frees write
		// buffers immediately and read buffers once drained.
		s.sendQ.Put(p, sendItem{
			isWrite: e.isWrite,
			bufOff:  e.bufOff,
			length:  e.length,
			last:    e.last,
			status:  e.status,
			devAddr: e.devAddr,
			readyAt: p.Now() + s.cfg.DrainLatency,
		})
		if e.isWrite {
			s.writeLat.Add(p.Now() - e.submittedAt)
		} else {
			s.readLat.Add(p.Now() - e.submittedAt)
		}
		s.tr.End(e.span, e.status, p.Now())
		// Read the live entry: a replay while this retirement blocked
		// moved its completion out of the current CQ.
		hadCQE := s.rob[slot].hasCQE
		s.robRelease(slot)
		s.cmdsRetired++
		if hadCQE {
			s.consumeCQE(e.queue)
		}
	}
}

// retireReadCost is the per-command in-order read retirement cost under the
// multi-queue decomposition: the serial in-order walk is paid in full, the
// CQ-engine bookkeeping shards across the queue pairs, and the head-doorbell
// update amortizes over the coalescing batch. With one queue and no batching
// it is exactly RetireReadCost, so the default configuration reproduces the
// paper's timeline bit for bit.
func (s *Streamer) retireReadCost() sim.Time {
	n := s.cfg.ioQueues()
	b := s.cfg.doorbellBatch()
	if n == 1 && b == 1 {
		return s.cfg.RetireReadCost
	}
	serial := s.cfg.RetireReadCost - s.cfg.RetireCQCost - s.cfg.RetireDoorbellCost
	if serial < 0 {
		serial = 0
	}
	return serial + s.cfg.RetireCQCost/sim.Time(n) + s.cfg.RetireDoorbellCost/sim.Time(b)
}

// sendItem is one retired command handed to the send stage.
type sendItem struct {
	isWrite bool
	bufOff  int64
	length  int64
	last    bool
	status  uint16
	devAddr uint64
	readyAt sim.Time
}

// drainChunk is the granule the send stage reads from the payload buffer,
// pipelined two deep so reading chunk i+1 overlaps streaming chunk i to the
// PE (⑥a in Figure 1).
const drainChunk = 256 * sim.KiB

// sendLoop is the output stage: it drains retired read data from the buffer
// memory (adding the per-variant drain pipeline latency), streams it to the
// PE in retirement order, and performs all buffer frees in FIFO order.
func (s *Streamer) sendLoop(p *sim.Proc) {
	p.SetDaemon(true)
	for {
		it := s.sendQ.Get(p)
		if it.isWrite {
			s.freeBuf(true, it.bufOff)
			continue
		}
		if it.status != nvme.StatusSuccess {
			// A failed read must not stream stale staging bytes as data:
			// the PE gets a zero-byte packet flagged with CmdError in
			// place of the payload, preserving TLAST framing.
			s.ReadData.Send(p, axis.Packet{
				Last: it.last,
				Meta: CmdError{Status: it.status, Addr: it.devAddr, Len: it.length},
			})
			s.freeBuf(false, it.bufOff)
			continue
		}
		s.drainAndSend(p, it)
		s.freeBuf(false, it.bufOff)
		s.bytesToPE += it.length
	}
}

// drainAndSend reads the command's payload from the staging buffer in
// chunks (two in flight) and serializes it onto the ReadData stream.
// Forwarding is strictly in ISSUE order: each in-flight chunk carries its
// own completion channel and the sender waits for the oldest one, because
// staging reads can complete out of order (a host-DRAM piece that straddles
// a pinned-chunk boundary splits into runs with different latencies) and
// the PE's byte stream must not be reordered.
func (s *Streamer) drainAndSend(p *sim.Proc, it sendItem) {
	type chunk struct {
		m    int64
		buf  pcie.Payload
		done *sim.Chan[struct{}]
	}
	var inflight []chunk
	var issued int64
	issue := func() {
		if issued >= it.length {
			return
		}
		m := int64(drainChunk)
		if m > it.length-issued {
			m = it.length - issued
		}
		off := it.bufOff + issued
		issued += m
		var buf pcie.Payload
		if s.cfg.Functional {
			// The chunk shares the staging pages at its read access;
			// ownership passes to the ReadData consumer, which releases
			// it (Client.ConsumeRead does) or lets it age out to the
			// garbage collector.
			buf = pcie.NewPages(int(off%pcie.PageSize), int(m))
		}
		c := chunk{m: m, buf: buf, done: sim.NewChan[struct{}](s.k, 1)}
		inflight = append(inflight, c)
		s.bufReadAsync(false, off, m, buf, func() { c.done.TryPut(struct{}{}) })
	}
	issue()
	issue()
	var sent int64
	for sent < it.length {
		c := inflight[0]
		inflight = inflight[1:]
		c.done.Get(p)
		issue()
		if d := it.readyAt - p.Now(); d > 0 {
			p.Sleep(d)
		}
		sent += c.m
		s.ReadData.Send(p, axis.Packet{
			Bytes: c.m,
			Last:  it.last && sent == it.length,
			Data:  c.buf,
		})
	}
}
