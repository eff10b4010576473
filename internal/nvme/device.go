package nvme

import (
	"encoding/binary"
	"fmt"

	"snacc/internal/obs"
	"snacc/internal/pcie"
	"snacc/internal/sim"
)

// Config parameterizes one SSD.
type Config struct {
	// Name identifies the device on the fabric and in the IOMMU.
	Name string
	// BARBase is the bus address of the register BAR.
	BARBase uint64
	// LBASize is the logical block size (512 for the 990 PRO default
	// format).
	LBASize int64
	// NamespaceBytes is the capacity of namespace 1.
	NamespaceBytes int64
	// Link is the device's PCIe attachment. The default models the
	// 990 PRO's Gen4 x4 link with a data-fetch engine that keeps 4
	// outstanding page-sized reads in flight — the credit window whose
	// round-trip sensitivity produces the paper's P2P write ceiling.
	Link pcie.LinkConfig
	// NAND is the flash backend profile.
	NAND NANDConfig
	// MaxIOQueuePairs bounds CreateIOSQ/CreateIOCQ.
	MaxIOQueuePairs int
	// FrontEndReadCost / FrontEndWriteCost serialize command processing in
	// the controller's firmware front end; they bound small-command IOPS
	// (SPDK's 4.5 / 5.25 GB/s random ceilings in Figure 4b).
	FrontEndReadCost  sim.Time
	FrontEndWriteCost sim.Time
	// FetchBatch is the max SQEs fetched per read; MaxFetchReads bounds
	// concurrent fetch reads in flight.
	FetchBatch    int
	MaxFetchReads int
	// ExecContexts bounds concurrently executing commands inside the
	// controller.
	ExecContexts int
	// SlowEpochReadPadding is added to the data-fetch path during slow
	// banding epochs (see NANDConfig.EpochBytes).
	SlowEpochReadPadding sim.Time
	// ReadyDelay is the time between CC.EN and CSTS.RDY.
	ReadyDelay sim.Time
	// Functional enables content movement (real bytes on the media); when
	// false the device is timing-only for data payloads. Queue entries and
	// PRP lists always carry real bytes.
	Functional bool
}

// DefaultConfig returns the calibrated Samsung 990 PRO 2 TB profile.
func DefaultConfig(name string, barBase uint64) Config {
	return Config{
		Name:           name,
		BARBase:        barBase,
		LBASize:        512,
		NamespaceBytes: 2 * 1000 * 1000 * sim.MiB, // 2 TB (decimal)
		Link: pcie.LinkConfig{
			Gen:                pcie.Gen4,
			Lanes:              4,
			MaxPayload:         512,
			MaxReadRequest:     PageSize,
			ReadCredits:        4,
			PropagationLatency: 150 * sim.Nanosecond,
		},
		NAND:                 DefaultNANDConfig(),
		MaxIOQueuePairs:      8,
		FrontEndReadCost:     650 * sim.Nanosecond,
		FrontEndWriteCost:    780 * sim.Nanosecond,
		FetchBatch:           8,
		MaxFetchReads:        4,
		ExecContexts:         128,
		SlowEpochReadPadding: 150 * sim.Nanosecond,
		ReadyDelay:           50 * sim.Microsecond,
	}
}

// queuePair tracks one SQ/CQ pair from the controller's perspective.
type queuePair struct {
	id      uint16
	sqBase  uint64
	cqBase  uint64
	entries int // SQ and CQ sized identically in this model

	sqTailDB  int // last doorbell value written by the host
	issueHead int // next SQE slot to issue a fetch for
	sqHead    int // fetch-completed position (reported in CQEs)
	cqTail    int // controller post position
	cqHeadDB  int // last CQ head doorbell from the host
	cqPhase   bool

	// cqWait holds completions stalled on CQ space; they drain when the
	// host advances the CQ head doorbell.
	cqWait sim.FIFO[*command]

	// outstanding tracks fetched-but-not-completed CIDs: a fetched CID
	// already in it completes with Command ID Conflict, and a completion
	// for a CID not in it is a model bug.
	outstanding cidSet
}

// cidSet is a set of command identifiers: a bitset over the CID space,
// grown only as far as the highest CID it has held, so a queue whose host
// numbers CIDs by slot keeps a few words.
type cidSet []uint64

func (s cidSet) has(cid uint16) bool {
	w := int(cid >> 6)
	return w < len(s) && s[w]&(1<<(cid&63)) != 0
}

func (s *cidSet) add(cid uint16) {
	w := int(cid >> 6)
	for len(*s) <= w {
		*s = append(*s, 0)
	}
	(*s)[w] |= 1 << (cid & 63)
}

func (s cidSet) remove(cid uint16) {
	if w := int(cid >> 6); w < len(s) {
		s[w] &^= 1 << (cid & 63)
	}
}

// cqFull reports whether posting another CQE would overwrite an entry the
// host has not acknowledged via the CQ head doorbell.
func (q *queuePair) cqFull() bool {
	return (q.cqTail+1)%q.entries == q.cqHeadDB
}

func (q *queuePair) pending() int {
	d := q.sqTailDB - q.issueHead
	if d < 0 {
		d += q.entries
	}
	return d
}

// CtrlMode is the controller's failure-model state.
type CtrlMode uint8

const (
	// ModeHealthy is normal operation.
	ModeHealthy CtrlMode = iota
	// ModeCrashed means a fatal internal error latched CSTS.CFS: the
	// controller stops fetching SQEs and posting CQEs until the host
	// performs a controller reset (CC.EN 1→0→1).
	ModeCrashed
	// ModeHung means the command engine froze: fetches and completions
	// park, but register accesses still work (so a reset can rescue a hung
	// controller). Hangs revive on their own after a deadline.
	ModeHung
	// ModeRemoved is surprise removal: register reads float all-1s like a
	// real PCIe master abort, writes vanish, and no reset can bring the
	// device back.
	ModeRemoved
)

// CtrlFault is a controller-level fault verdict for one command (see
// SetCtrlFaultInjector).
type CtrlFault struct {
	// Crash latches CSTS.CFS at this command: a recoverable fatal error.
	Crash bool
	// Remove surprise-removes the controller at this command: permanent.
	Remove bool
	// Hang, when positive, freezes the command engine for this duration,
	// then revives it.
	Hang sim.Time
}

// Device is one simulated NVMe SSD attached to a PCIe fabric.
type Device struct {
	k    *sim.Kernel
	cfg  Config
	port *pcie.Port
	nand *NAND

	// Registers.
	cc   uint32
	csts uint32
	aqa  uint32
	asq  uint64
	acq  uint64

	queues       []*queuePair         // by qid, admin at 0 once enabled; nil where none exists
	cqPendingMap map[uint16]cqPending // CQs awaiting their paired SQ

	execGate     *sim.Gate
	frontEndBusy sim.Time

	// Free lists of recycled commands and SQE fetches (command.go).
	cmdFree   []*command
	fetchFree []*sqeFetch

	// Fetch scheduler state: the MaxFetchReads budget is device-global (not
	// per queue), and fetchRR is the round-robin scan pointer that hands the
	// next credit to the next qid with pending entries — one hot queue
	// cannot monopolize the fetch engine. unfetched counts the rung but
	// unfetched SQEs of every queue (the sum of pending()), so the scan
	// stops as soon as nothing is left to fetch.
	fetchReads int
	fetchRR    int
	unfetched  int

	// Failure model.
	mode        CtrlMode
	fatalReason string
	resetGen    uint64             // invalidates ready timers across resets
	hangGen     uint64             // invalidates stale revive timers
	hungWait    sim.FIFO[*command] // completions parked while hung

	// faultInjector, when set, can force a failure status for an I/O
	// command before execution (tests and failure-injection experiments).
	faultInjector func(Command) uint16
	// cqeInterceptor, when set, decides the fate of each I/O completion
	// entry before it is posted (lost/late-CQE fault injection).
	cqeInterceptor func(Command, uint16) CQEFate
	// ctrlInjector, when set, can crash, hang or remove the whole
	// controller at a chosen I/O command.
	ctrlInjector func(Command) CtrlFault
	// cmdObserver, when set, receives per-command pipeline events (SQE
	// fetched, execution started) for span tracing. Nil by default; the
	// untraced path pays one nil compare per site.
	cmdObserver CmdObserver

	// Stats.
	cmdsExecuted int64
	cqesDropped  int64
	cqesDelayed  int64
	cqesLost     int64
	ctrlCrashes  int64
	ctrlHangs    int64
	ctrlRemovals int64
	errs         int64
}

// SetFaultInjector installs fn; fn returning a non-success status fails the
// command without touching media. Pass nil to clear.
func (d *Device) SetFaultInjector(fn func(Command) uint16) { d.faultInjector = fn }

// CmdObserver receives device-side pipeline events for span tracing: the
// qid/cid pair names the command, stage is obs.StageFetched when the fetch
// engine decoded its SQE and obs.StageTransfer when execution began. The
// admin queue (qid 0) reports too; host glue typically filters on the I/O
// queue it owns.
type CmdObserver func(qid, cid uint16, stage obs.Stage, at sim.Time)

// SetCmdObserver installs the per-command event observer (nil to remove).
func (d *Device) SetCmdObserver(fn CmdObserver) { d.cmdObserver = fn }

// CQEFate is a completion interceptor's verdict on one completion entry.
type CQEFate struct {
	// Drop loses the completion: the command executes and is accounted,
	// but its CQE is never posted — the host-side recovery (timeout
	// watchdog) is the only way forward.
	Drop bool
	// Delay, when positive, postpones posting the CQE. Long delays race
	// the host's command deadline and provoke stale completions for
	// already-resubmitted commands.
	Delay sim.Time
}

// SetCQEInterceptor installs fn, consulted once per I/O-queue completion
// before the CQE is posted; admin completions are never intercepted. Pass
// nil to clear. internal/fault uses this to model lost and delayed
// completions.
func (d *Device) SetCQEInterceptor(fn func(Command, uint16) CQEFate) { d.cqeInterceptor = fn }

// SetCtrlFaultInjector installs fn, consulted once per I/O command before
// execution; a non-zero CtrlFault crashes, hangs or removes the whole
// controller at that command. Pass nil to clear. internal/fault uses this
// for controller-level fault rules.
func (d *Device) SetCtrlFaultInjector(fn func(Command) CtrlFault) { d.ctrlInjector = fn }

// CQEsDropped returns completions lost by the interceptor.
func (d *Device) CQEsDropped() int64 { return d.cqesDropped }

// CQEsDelayed returns completions posted late by the interceptor.
func (d *Device) CQEsDelayed() int64 { return d.cqesDelayed }

// CQEsLost returns completions discarded because the controller crashed,
// hung without reviving, was removed, or was reset while they were in
// flight.
func (d *Device) CQEsLost() int64 { return d.cqesLost }

// Mode returns the controller's failure-model state.
func (d *Device) Mode() CtrlMode { return d.mode }

// FatalReason describes the most recent fatal-status latch ("" if none).
func (d *Device) FatalReason() string { return d.fatalReason }

// ControllerCrashes counts CSTS.CFS latches (injected or protocol-driven).
func (d *Device) ControllerCrashes() int64 { return d.ctrlCrashes }

// ControllerHangs counts injected command-engine hangs.
func (d *Device) ControllerHangs() int64 { return d.ctrlHangs }

// Crash latches the controller fatal status (CSTS.CFS): the device stops
// fetching SQEs and posting CQEs until the host resets it.
func (d *Device) Crash() { d.fatal("host-injected controller crash") }

// Hang freezes the command engine for dur: fetched commands park their
// completions and no new SQEs are fetched. The controller revives on its
// own when dur elapses, unless it crashes or resets first.
func (d *Device) Hang(dur sim.Time) {
	if d.mode != ModeHealthy || dur <= 0 {
		return
	}
	d.ctrlHangs++
	d.mode = ModeHung
	d.hangGen++
	gen := d.hangGen
	d.k.After(dur, func() { d.revive(gen) })
}

// Remove surprise-removes the device from the fabric: register reads float
// all-1s, writes vanish, and the controller never comes back.
func (d *Device) Remove() {
	if d.mode == ModeRemoved {
		return
	}
	d.ctrlRemovals++
	d.mode = ModeRemoved
	d.resetGen++
	d.flushParked(d.queues)
}

// fatal latches CSTS.CFS and enters the crashed mode. Completions parked
// during a hang are flushed through the discard path so their execution
// contexts recycle.
func (d *Device) fatal(reason string) {
	if d.mode == ModeRemoved || d.mode == ModeCrashed {
		return
	}
	d.ctrlCrashes++
	d.fatalReason = reason
	d.mode = ModeCrashed
	d.csts |= CSTSFatal
	d.resetGen++
	d.flushParked(d.queues)
}

// revive ends a hang: parked completions flush and fetching resumes.
func (d *Device) revive(gen uint64) {
	if d.mode != ModeHung || gen != d.hangGen {
		return
	}
	d.mode = ModeHealthy
	for n := d.hungWait.Len(); n > 0; n-- {
		d.hungWait.Pop().resume()
	}
	// The scheduler scans qids numerically — deterministic, unlike ranging
	// over the queue map would be.
	d.kickAll()
}

// flushParked re-enters every parked completion after a mode or
// queue-generation change. Each re-entry hits the discard path (the mode or
// the stale-queue check), which releases the execution context the command
// still holds — without this, repeated crashes leak exec contexts until the
// controller wedges.
func (d *Device) flushParked(old []*queuePair) {
	for n := d.hungWait.Len(); n > 0; n-- {
		d.hungWait.Pop().resume()
	}
	for _, q := range old {
		if q == nil {
			continue
		}
		for n := q.cqWait.Len(); n > 0; n-- {
			q.cqWait.Pop().resume()
		}
	}
}

// stale reports whether q belongs to a previous controller generation
// (replaced or dropped by a reset). Completions for stale queues are
// discarded — they must never land in a rebuilt queue's memory.
func (d *Device) stale(q *queuePair) bool { return d.queues[q.id] != q }

// New attaches a device to the fabric and maps its register BAR.
func New(k *sim.Kernel, f *pcie.Fabric, cfg Config) *Device {
	if cfg.LBASize <= 0 || PageSize%cfg.LBASize != 0 {
		panic("nvme: LBA size must divide the page size")
	}
	d := &Device{
		k:        k,
		cfg:      cfg,
		nand:     NewNAND(k, cfg.NAND),
		queues:   make([]*queuePair, cfg.MaxIOQueuePairs+1),
		execGate: sim.NewGate(cfg.ExecContexts),
	}
	d.port = f.AttachPort(cfg.Name, cfg.Link, (*deviceBAR)(d))
	d.port.DeclareIdentity(pcie.Identity{
		Vendor:   0x144D, // Samsung
		Device:   0xA80C, // 990 PRO
		Class:    pcie.ClassNVMe,
		BARBytes: BARSize,
		OnAssign: func(base uint64) { d.cfg.BARBase = base },
	})
	if cfg.BARBase != 0 {
		// Statically placed (tests, simple rigs); enumeration assigns the
		// window otherwise.
		f.MapRange(d.port, cfg.BARBase, BARSize)
	}
	d.nand.OnEpochChange = func(slow bool) {
		if slow {
			d.port.SetReadPadding(cfg.SlowEpochReadPadding)
		} else {
			d.port.SetReadPadding(0)
		}
	}
	return d
}

// Port returns the device's fabric port (for IOMMU grants and stats).
func (d *Device) Port() *pcie.Port { return d.port }

// NAND exposes the flash backend (for stats and media content).
func (d *Device) NAND() *NAND { return d.nand }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// CommandsExecuted returns the number of completed commands.
func (d *Device) CommandsExecuted() int64 { return d.cmdsExecuted }

// Errors returns the number of commands completed with non-success status.
func (d *Device) Errors() int64 { return d.errs }

// deviceBAR implements pcie.Completer for the register BAR without
// polluting Device's method set with transport callbacks.
type deviceBAR Device

// CompleteWrite decodes register and doorbell writes.
func (b *deviceBAR) CompleteWrite(addr uint64, n int64, payload pcie.Payload) {
	d := (*Device)(b)
	data := payload.Bytes()
	off := addr - d.cfg.BARBase
	if off >= RegDoorbellBase {
		d.doorbell(off, data)
		return
	}
	if data == nil {
		panic("nvme: register write requires data")
	}
	d.regWrite(off, data)
}

// CompleteRead serves register reads.
func (b *deviceBAR) CompleteRead(addr uint64, n int64, dst pcie.Payload, done func()) {
	d := (*Device)(b)
	if !dst.IsNil() {
		buf := make([]byte, n)
		d.regRead(addr-d.cfg.BARBase, buf)
		dst.WriteAt(buf, 0)
	}
	// Register access latency across the device's internal bus.
	d.k.After(100*sim.Nanosecond, done)
}

func (d *Device) regWrite(off uint64, data []byte) {
	if d.mode == ModeRemoved {
		return // writes to a removed device vanish (master abort)
	}
	switch off {
	case RegCC:
		d.cc = binary.LittleEndian.Uint32(data)
		if d.cc&CCEnable != 0 && d.csts&CSTSReady == 0 && d.mode == ModeHealthy {
			d.enable()
		}
		if d.cc&CCEnable == 0 {
			d.reset()
		}
	case RegAQA:
		d.aqa = binary.LittleEndian.Uint32(data)
	case RegASQ:
		d.asq = binary.LittleEndian.Uint64(data)
	case RegACQ:
		d.acq = binary.LittleEndian.Uint64(data)
	default:
		// Unmodeled register: a real controller treats this as an
		// unrecoverable protocol violation — latch the fatal status the
		// host can observe instead of killing the simulation.
		d.fatal(fmt.Sprintf("write to unmodeled register %#x", off))
	}
}

func (d *Device) regRead(off uint64, buf []byte) {
	if d.mode == ModeRemoved {
		// A removed device aborts the read; the root complex returns
		// all-1s, which is how hosts detect surprise removal.
		for i := range buf {
			buf[i] = 0xFF
		}
		return
	}
	switch off {
	case RegCAP:
		// MQES (max queue entries, 0-based) in bits 15:0; DSTRD 0; TO in
		// bits 31:24 (units of 500 ms — report 1).
		var cap64 uint64 = 1023 | 1<<24
		tmp := make([]byte, 8)
		binary.LittleEndian.PutUint64(tmp, cap64)
		copy(buf, tmp)
	case RegVS:
		// NVMe 1.4.0: major 1, minor 4.
		tmp := make([]byte, 4)
		binary.LittleEndian.PutUint32(tmp, 1<<16|4<<8)
		copy(buf, tmp)
	case RegCC:
		tmp := make([]byte, 4)
		binary.LittleEndian.PutUint32(tmp, d.cc)
		copy(buf, tmp)
	case RegCSTS:
		tmp := make([]byte, 4)
		binary.LittleEndian.PutUint32(tmp, d.csts)
		copy(buf, tmp)
	default:
		// Unmodeled register: return zeros and latch the fatal status.
		for i := range buf {
			buf[i] = 0
		}
		d.fatal(fmt.Sprintf("read of unmodeled register %#x", off))
	}
}

// enable brings the controller up: materialize the admin queue pair.
func (d *Device) enable() {
	entries := int(d.aqa&0xFFF) + 1 // ASQS, 0-based
	d.queues[0] = &queuePair{
		id:      0,
		sqBase:  d.asq,
		cqBase:  d.acq,
		entries: entries,
		cqPhase: true,
	}
	d.recountUnfetched()
	gen := d.resetGen
	d.k.After(d.cfg.ReadyDelay, func() {
		// A reset or crash between CC.EN and the ready deadline cancels
		// the transition — ready must not reappear on a torn-down
		// controller.
		if gen == d.resetGen && d.mode == ModeHealthy {
			d.csts |= CSTSReady
		}
	})
}

// reset is a controller reset (CC.EN 1→0): queues are torn down, the ready
// and fatal status bits clear, and a crashed or hung controller returns to
// healthy. Completions still in flight against the old queues flush through
// the stale-queue discard path.
func (d *Device) reset() {
	d.csts &^= CSTSReady | CSTSFatal
	d.resetGen++
	old := d.queues
	d.queues = make([]*queuePair, len(old))
	d.recountUnfetched()
	d.cqPendingMap = nil
	if d.mode == ModeCrashed || d.mode == ModeHung {
		d.mode = ModeHealthy
		d.hangGen++ // cancel a pending revive
	}
	d.flushParked(old)
}

// doorbell decodes a doorbell write and kicks the affected queue.
func (d *Device) doorbell(off uint64, data []byte) {
	if data == nil {
		panic("nvme: doorbell write requires data")
	}
	if d.mode == ModeCrashed || d.mode == ModeRemoved {
		return // dead ears: a crashed/removed controller ignores doorbells
	}
	if d.csts&CSTSReady == 0 {
		// Rings racing a controller reset or bring-up (e.g. the host-side
		// recovery retiring pre-crash completions mid-reset) are ignored,
		// matching hardware: doorbells are undefined while disabled.
		return
	}
	idx := (off - RegDoorbellBase) / 4
	qid := uint16(idx / 2)
	isCQ := idx%2 == 1
	var q *queuePair
	if idx < uint64(2*len(d.queues)) {
		q = d.queues[qid]
	}
	if q == nil {
		// Protocol violation by the host: latch the fatal status the host
		// can observe rather than killing the simulation.
		d.fatal(fmt.Sprintf("doorbell for unknown queue %d", qid))
		return
	}
	val := int(binary.LittleEndian.Uint32(data))
	if val < 0 || val >= q.entries {
		d.fatal(fmt.Sprintf("doorbell value %d out of range for %d-entry queue", val, q.entries))
		return
	}
	if isCQ {
		q.cqHeadDB = val
		for q.cqWait.Len() > 0 && !q.cqFull() {
			q.cqWait.Pop().resume()
		}
		return
	}
	d.unfetched -= q.pending()
	q.sqTailDB = val
	d.unfetched += q.pending()
	d.kickAll()
}

// recountUnfetched recomputes unfetched after queues were created, deleted
// or torn down.
func (d *Device) recountUnfetched() {
	d.unfetched = 0
	for _, q := range d.queues {
		if q != nil {
			d.unfetched += q.pending()
		}
	}
}

// kickAll runs the fetch scheduler: while the device-global fetch-read
// budget has credit, scan the queue IDs round-robin from the persistent
// pointer — numeric qid order, deterministic, never Go map iteration order —
// and issue one batched SQE fetch per queue with pending entries. Because
// the budget is shared and each grant moves the pointer past the granted
// queue, a hot queue gets at most one fetch read per full scan while others
// wait — the per-queue fairness the multi-queue streamer relies on. With a
// single active queue every credit lands on it back to back, reproducing the
// old per-queue loop exactly. The scan stops once no queue has an unfetched
// entry: a scan that finds nothing moves the pointer a full cycle, back to
// where it started, so stopping early leaves it where the full scan would.
func (d *Device) kickAll() {
	if d.mode != ModeHealthy {
		return
	}
	n := d.cfg.MaxIOQueuePairs + 1 // qid 0 (admin) .. MaxIOQueuePairs
	scanned := 0
	for d.unfetched > 0 && d.fetchReads < d.cfg.MaxFetchReads && scanned < n {
		qid := uint16(d.fetchRR % n)
		d.fetchRR = (d.fetchRR + 1) % n
		q := d.queues[qid]
		if q == nil || q.pending() == 0 {
			scanned++
			continue
		}
		d.fetchOne(q)
		scanned = 0
	}
}

// fetchOne issues one batched SQE fetch for q (up to FetchBatch entries,
// bounded by the ring-wrap boundary) and dispatches the entries when the
// read returns. Fetch reads travel the same fabric path, so they complete in
// issue order and q.sqHead — the value reported back to the host in CQEs —
// advances in order too.
func (d *Device) fetchOne(q *queuePair) {
	pending := q.pending()
	batch := pending
	if batch > d.cfg.FetchBatch {
		batch = d.cfg.FetchBatch
	}
	if untilWrap := q.entries - q.issueHead; batch > untilWrap {
		batch = untilWrap
	}
	fetchHead := q.issueHead
	q.issueHead = (fetchHead + batch) % q.entries
	d.unfetched -= batch
	d.fetchReads++
	// The fetch owns its buffer: the completer fills it before done runs,
	// and done decodes every SQE into a value before releasing the fetch.
	f := d.getFetch()
	f.q, f.head, f.batch, f.buf = q, fetchHead, batch, ownedBuf(f.buf, batch*SQESize)
	d.port.ReadCtrl(q.sqBase+uint64(fetchHead*SQESize), int64(len(f.buf)), f.buf, f.doneFn)
}

// done dispatches a fetch's entries once the read has returned.
func (f *sqeFetch) done() {
	f.check()
	d, q, fetchHead, batch, buf := f.d, f.q, f.head, f.batch, f.buf
	q.sqHead = (fetchHead + batch) % q.entries
	d.fetchReads--
	if d.mode == ModeCrashed || d.mode == ModeRemoved || d.stale(q) {
		// The controller died (or was reset) while the fetch was
		// on the wire: the entries are never dispatched.
		f.release()
		return
	}
	for i := 0; i < batch; i++ {
		cmd, err := UnmarshalCommand(buf[i*SQESize:])
		if err != nil {
			panic(err) // 64-byte slices by construction
		}
		c := d.getCommand(q, cmd)
		if q.outstanding.has(cmd.CID) {
			// The host reused a CID still outstanding on this queue: the
			// entry completes with Command ID Conflict and leaves the
			// original's record, and its span, alone.
			c.dup = true
		} else {
			q.outstanding.add(cmd.CID)
			if d.cmdObserver != nil {
				d.cmdObserver(q.id, cmd.CID, obs.StageFetched, d.k.Now())
			}
		}
		d.execGate.Acquire(c)
	}
	f.release()
	d.kickAll()
}

// Grant runs once the command holds an execution context: it books the
// serializing firmware front end, after which the command executes.
func (c *command) Grant() {
	c.check()
	d := c.d
	cost := d.cfg.FrontEndWriteCost
	if c.cmd.Opcode == OpRead && c.q.id != 0 {
		cost = d.cfg.FrontEndReadCost
	}
	start := d.k.Now()
	if d.frontEndBusy > start {
		start = d.frontEndBusy
	}
	d.frontEndBusy = start + cost
	d.k.At(d.frontEndBusy, c.stage.execute)
}

func (c *command) execute() {
	c.check()
	if c.dup {
		c.d.complete(c, StatusCommandIDConflict, 0)
	} else if c.q.id == 0 {
		c.d.executeAdmin(c)
	} else {
		c.d.executeIO(c)
	}
}

// complete finishes c with status and dw0: consult the CQE interceptor
// (fault injection), then deliver the completion entry and release the
// execution context.
func (d *Device) complete(c *command, status uint16, dw0 uint32) {
	c.check()
	c.status, c.dw0 = status, dw0
	q, cmd := c.q, c.cmd
	if d.mode == ModeCrashed || d.mode == ModeRemoved || d.stale(q) {
		d.discard(c)
		return
	}
	if d.ctrlInjector != nil && q.id != 0 {
		// Controller fates are counted per I/O completion (admin commands —
		// including the recovery ladder's own queue rebuilds — are exempt).
		// The crashed/removed command has already moved its data, so its
		// lost completion is safe to replay; only the CQE is withheld.
		f := d.ctrlInjector(cmd)
		switch {
		case f.Remove:
			d.Remove()
			d.discard(c)
			return
		case f.Crash:
			d.fatal("injected controller crash")
			d.discard(c)
			return
		case f.Hang > 0:
			// The command itself executed; its completion (and every other
			// in-flight one) parks until the engine revives.
			d.Hang(f.Hang)
		}
	}
	if d.cqeInterceptor != nil && q.id != 0 {
		fate := d.cqeInterceptor(cmd, status)
		if fate.Drop || fate.Delay > 0 {
			// The command itself executed: finalize its bookkeeping and
			// free the execution context now — only CQE delivery is
			// faulted. A dropped CQE consumes no CQ slot.
			d.account(c)
			d.execGate.Release()
			if fate.Drop {
				d.cqesDropped++
				c.release()
				return
			}
			d.cqesDelayed++
			d.k.After(fate.Delay, c.stage.post)
			return
		}
	}
	c.deliver()
}

// discard drops a completion whose controller died (or whose queue was
// torn down) while the command executed: the host never sees a CQE, but the
// execution context recycles and the outstanding-CID record clears.
func (d *Device) discard(c *command) {
	if !c.dup {
		c.q.outstanding.remove(c.cmd.CID)
	}
	d.cqesLost++
	d.execGate.Release()
	c.release()
}

// deliver posts c's CQE on its completion queue and releases the execution
// context.
func (c *command) deliver() {
	c.check()
	d, q := c.d, c.q
	if d.mode == ModeCrashed || d.mode == ModeRemoved || d.stale(q) {
		d.discard(c)
		return
	}
	if d.mode == ModeHung {
		// Frozen command engine: the completion parks (holding its
		// execution context) until the controller revives, crashes or
		// resets.
		c.resume = c.stage.deliver
		d.hungWait.Push(c)
		return
	}
	if q.cqFull() {
		// Stall until the host frees CQ space — posting now would
		// overwrite an unacknowledged completion.
		c.resume = c.stage.deliver
		q.cqWait.Push(c)
		return
	}
	d.account(c)
	c.postCQE()
	d.execGate.Release()
}

// account finalizes a command's bookkeeping at completion-decision time.
func (d *Device) account(c *command) {
	q, cid := c.q, c.cmd.CID
	if !c.dup {
		if !q.outstanding.has(cid) {
			panic(fmt.Sprintf("nvme: double completion of CID %d on q%d", cid, q.id))
		}
		q.outstanding.remove(cid)
	}
	d.cmdsExecuted++
	if c.status != StatusSuccess {
		d.errs++
	}
}

// postCQE marshals and posts the completion entry (command bookkeeping
// already done). A late-posted CQE that finds the CQ full waits for
// head-doorbell space like any other completion.
func (c *command) postCQE() {
	c.check()
	d, q := c.d, c.q
	if d.mode == ModeCrashed || d.mode == ModeRemoved || d.stale(q) {
		d.cqesLost++ // bookkeeping already done; only the entry is lost
		c.release()
		return
	}
	if d.mode == ModeHung {
		c.resume = c.stage.post
		d.hungWait.Push(c)
		return
	}
	if q.cqFull() {
		c.resume = c.stage.post
		q.cqWait.Push(c)
		return
	}
	cqe := Completion{
		DW0:    c.dw0,
		SQHead: uint16(q.sqHead),
		SQID:   q.id,
		CID:    c.cmd.CID,
		Phase:  q.cqPhase,
		Status: c.status,
	}
	addr := q.cqBase + uint64(q.cqTail*CQESize)
	q.cqTail++
	if q.cqTail == q.entries {
		q.cqTail = 0
		q.cqPhase = !q.cqPhase
	}
	// The CQ completer (streamer reorder buffer or host memory) consumes
	// the entry synchronously at delivery, so the command recycles then.
	cqe.MarshalInto(c.cqe[:])
	d.port.Write(addr, CQESize, pcie.Bytes(c.cqe[:]), c.stage.cqeSent)
}

// cqeSent ends c once its completion entry has been delivered.
func (c *command) cqeSent() {
	c.check()
	c.release()
}
