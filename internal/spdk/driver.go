// Package spdk models a polled user-space NVMe driver in the style of the
// Storage Performance Development Kit, the paper's host-side reference
// (§5.1): queues and data buffers live in pinned host memory, submissions
// are plain stores plus a doorbell write, and completions are discovered by
// polling the CQ phase bit — no interrupts, no system calls. One CPU core
// executes the entire data path, and its utilization is tracked to
// reproduce the §6.3 observation that the SPDK variant burns a full core.
package spdk

import (
	"encoding/binary"
	"fmt"

	"snacc/internal/nvme"
	"snacc/internal/pcie"
	"snacc/internal/sim"
)

// DriverConfig parameterizes the host driver.
type DriverConfig struct {
	// QueueDepth is the I/O queue size (SQ and CQ entries).
	QueueDepth int
	// QueuePairs is the number of I/O queue pairs to create (real SPDK
	// typically runs one per core). I/O is distributed round robin.
	QueuePairs int
	// SubmitCost is CPU time to build one SQE and ring the doorbell.
	SubmitCost sim.Time
	// CompleteCost is CPU time to reap one completion.
	CompleteCost sim.Time
	// PollDelay is the delay between a CQE landing in host memory and the
	// polling loop acting on it.
	PollDelay sim.Time
	// ReadObservationDelay is a calibrated residual added to *measured*
	// read latency (the Latency helper only): the paper reports 57 µs for
	// an SPDK 4 KiB random read (Fig. 4c) while the protocol-level path in
	// this model accounts for ~34 µs; the remainder is host software the
	// paper does not decompose. It never touches the bandwidth paths,
	// matching the paper's Figures 4a/4b.
	ReadObservationDelay sim.Time
	// Functional moves real payload bytes.
	Functional bool
}

// DefaultDriverConfig returns the calibrated configuration.
func DefaultDriverConfig() DriverConfig {
	return DriverConfig{
		QueueDepth:           64,
		QueuePairs:           1,
		SubmitCost:           300 * sim.Nanosecond,
		CompleteCost:         200 * sim.Nanosecond,
		PollDelay:            200 * sim.Nanosecond,
		ReadObservationDelay: 27 * sim.Microsecond,
		Functional:           false,
	}
}

// Driver is an attached controller handle.
type Driver struct {
	k    *sim.Kernel
	cfg  DriverConfig
	host *pcie.Host
	bar  uint64
	cpu  *sim.Server

	lbaSize   int64
	nsBlocks  uint64
	mdtsBytes int64

	admin   *hostQueue
	ioQs    []*hostQueue
	nextQP  int
	prpPool []uint64
}

// hostQueue is the host-side view of one SQ/CQ pair.
type hostQueue struct {
	d       *Driver
	id      uint16
	entries int
	sqBase  uint64
	cqBase  uint64

	sqTail int
	sqHead int // from CQE SQHead, for full detection
	cqHead int
	phase  bool
	// cidFree is a tracker freelist: CIDs identify in-flight trackers the
	// way SPDK's request trackers do, so out-of-order completion can never
	// collide two commands on one CID.
	cidFree []uint16

	inflight map[uint16]func(nvme.Completion)
	// slotWaiters hold submissions parked until a submission slot frees.
	slotWaiters sim.FIFO[queuedSubmit]
}

type queuedSubmit struct {
	cmd nvme.Command
	cb  func(nvme.Completion)
}

// full reports whether another command may be submitted. Two limits apply:
// the SQ ring itself (tail may not catch the fetch head) and — like real
// SPDK's request trackers — the count of *uncompleted* commands, which must
// stay below the queue depth so the device can never overrun the CQ.
func (q *hostQueue) full() bool {
	next := (q.sqTail + 1) % q.entries
	return next == q.sqHead || len(q.inflight) >= q.entries-1
}

// Attach initializes the controller exactly the way a real driver does:
// disable, program admin queue registers, enable, wait for ready, identify
// controller and namespace, then create one I/O queue pair.
func Attach(p *sim.Proc, host *pcie.Host, barBase uint64, cfg DriverConfig) (*Driver, error) {
	if cfg.QueueDepth < 2 {
		return nil, fmt.Errorf("spdk: queue depth must be at least 2")
	}
	d := &Driver{
		k:    p.Kernel(),
		cfg:  cfg,
		host: host,
		bar:  barBase,
		cpu:  sim.NewServer(p.Kernel()),
	}
	// Reset, then program the admin queue (depth 32).
	const adminDepth = 32
	d.admin = d.newQueue(0, adminDepth)
	d.regWrite32(p, nvme.RegCC, 0)
	d.regWrite32(p, nvme.RegAQA, uint32(adminDepth-1)|uint32(adminDepth-1)<<16)
	d.regWrite64(p, nvme.RegASQ, d.admin.sqBase)
	d.regWrite64(p, nvme.RegACQ, d.admin.cqBase)
	d.regWrite32(p, nvme.RegCC, nvme.CCEnable)
	if err := d.waitReady(p); err != nil {
		return nil, err
	}

	// Identify controller: MDTS and sanity.
	idBuf := host.Alloc(nvme.PageSize, nvme.PageSize)
	cpl, err := d.adminCmd(p, nvme.Command{
		Opcode: nvme.OpIdentify,
		NSID:   0,
		PRP1:   idBuf,
		CDW10:  nvme.CNSController,
	})
	_ = cpl
	if err != nil {
		return nil, err
	}
	ctrl := make([]byte, nvme.PageSize)
	d.host.Mem.Store().ReadBytes(idBuf-hostMemBase(host), ctrl)
	mdts := ctrl[77]
	d.mdtsBytes = int64(nvme.PageSize) << mdts

	// Identify namespace 1: capacity and LBA format.
	if _, err := d.adminCmd(p, nvme.Command{
		Opcode: nvme.OpIdentify,
		NSID:   1,
		PRP1:   idBuf,
		CDW10:  nvme.CNSNamespace,
	}); err != nil {
		return nil, err
	}
	ns := make([]byte, nvme.PageSize)
	d.host.Mem.Store().ReadBytes(idBuf-hostMemBase(host), ns)
	d.nsBlocks = binary.LittleEndian.Uint64(ns[0:])
	lbads := ns[130]
	d.lbaSize = 1 << lbads

	// Request queue count, then create the I/O pairs.
	pairs := cfg.QueuePairs
	if pairs <= 0 {
		pairs = 1
	}
	if _, err := d.adminCmd(p, nvme.Command{
		Opcode: nvme.OpSetFeatures,
		CDW10:  uint32(nvme.FeatureNumQueues),
		CDW11:  uint32(pairs-1) | uint32(pairs-1)<<16,
	}); err != nil {
		return nil, err
	}
	for qid := uint16(1); qid <= uint16(pairs); qid++ {
		q := d.newQueue(qid, cfg.QueueDepth)
		if _, err := d.adminCmd(p, nvme.Command{
			Opcode: nvme.OpCreateIOCQ,
			PRP1:   q.cqBase,
			CDW10:  uint32(q.id) | uint32(cfg.QueueDepth-1)<<16,
			CDW11:  1, // physically contiguous
		}); err != nil {
			return nil, err
		}
		if _, err := d.adminCmd(p, nvme.Command{
			Opcode: nvme.OpCreateIOSQ,
			PRP1:   q.sqBase,
			CDW10:  uint32(q.id) | uint32(cfg.QueueDepth-1)<<16,
			CDW11:  1 | uint32(q.id)<<16,
		}); err != nil {
			return nil, err
		}
		d.ioQs = append(d.ioQs, q)
	}
	return d, nil
}

// newQueue allocates SQ/CQ rings in host memory and arms the CQ watch.
func (d *Driver) newQueue(id uint16, entries int) *hostQueue {
	q := &hostQueue{
		d:        d,
		id:       id,
		entries:  entries,
		sqBase:   d.host.Alloc(int64(entries*nvme.SQESize), nvme.PageSize),
		cqBase:   d.host.Alloc(int64(entries*nvme.CQESize), nvme.PageSize),
		phase:    true,
		inflight: make(map[uint16]func(nvme.Completion)),
	}
	for i := entries - 1; i >= 0; i-- {
		q.cidFree = append(q.cidFree, uint16(i))
	}
	d.host.Mem.Watch(q.cqBase, int64(entries*nvme.CQESize), func(addr uint64, n int64, data []byte) {
		d.k.After(d.cfg.PollDelay, func() { q.reap() })
	})
	return q
}

// reap consumes ready CQEs in order, paying CPU time per completion.
func (q *hostQueue) reap() {
	for {
		raw := make([]byte, nvme.CQESize)
		off := q.cqBase - hostMemBase(q.d.host) + uint64(q.cqHead*nvme.CQESize)
		q.d.host.Mem.Store().ReadBytes(off, raw)
		cqe, err := nvme.UnmarshalCompletion(raw)
		if err != nil || cqe.Phase != q.phase {
			return
		}
		q.cqHead++
		if q.cqHead == q.entries {
			q.cqHead = 0
			q.phase = !q.phase
		}
		q.sqHead = int(cqe.SQHead)
		cb, okCID := q.inflight[cqe.CID]
		if !okCID {
			panic(fmt.Sprintf("spdk: completion for unknown CID %d", cqe.CID))
		}
		delete(q.inflight, cqe.CID)
		q.cidFree = append(q.cidFree, cqe.CID)
		// CQ head doorbell + completion processing on the data-path core.
		q.d.cpu.OccupyAnd(q.d.cfg.CompleteCost, func() {
			q.d.host.Port.Write(q.d.bar+nvme.RegDoorbellBase+uint64(2*q.id+1)*4, 4, pcie.Bytes(binary.LittleEndian.AppendUint32(nil, uint32(q.cqHead))), nil)
			if cb != nil {
				cb(cqe)
			}
			// A freed SQ slot may unblock a queued submitter.
			if q.slotWaiters.Len() > 0 && !q.full() {
				w := q.slotWaiters.Pop()
				q.submit(w.cmd, w.cb)
			}
		})
	}
}

// submit places cmd in the SQ and rings the doorbell, invoking cb on
// completion. It blocks (via callback queuing) while the SQ is full.
func (q *hostQueue) submit(cmd nvme.Command, cb func(nvme.Completion)) {
	if q.full() {
		q.slotWaiters.Push(queuedSubmit{cmd: cmd, cb: cb})
		return
	}
	cmd.CID = q.cidFree[len(q.cidFree)-1]
	q.cidFree = q.cidFree[:len(q.cidFree)-1]
	q.inflight[cmd.CID] = cb
	// Store the SQE (host CPU writing its own DRAM) and ring the doorbell.
	off := q.sqBase - hostMemBase(q.d.host) + uint64(q.sqTail*nvme.SQESize)
	q.d.host.Mem.Store().WriteBytes(off, cmd.Marshal())
	q.sqTail = (q.sqTail + 1) % q.entries
	tail := q.sqTail
	q.d.cpu.OccupyAnd(q.d.cfg.SubmitCost, func() {
		q.d.host.Port.Write(q.d.bar+nvme.RegDoorbellBase+uint64(2*q.id)*4, 4, pcie.Bytes(binary.LittleEndian.AppendUint32(nil, uint32(tail))), nil)
	})
}

// adminCmd submits on the admin queue and blocks until completion.
func (d *Driver) adminCmd(p *sim.Proc, cmd nvme.Command) (nvme.Completion, error) {
	ch := sim.NewChan[nvme.Completion](d.k, 1)
	d.admin.submit(cmd, func(c nvme.Completion) { ch.TryPut(c) })
	cpl := ch.Get(p)
	if cpl.Status != nvme.StatusSuccess {
		return cpl, &nvme.StatusError{Op: cmd.Opcode, CID: cpl.CID, Status: cpl.Status}
	}
	return cpl, nil
}

func (d *Driver) waitReady(p *sim.Proc) error {
	for i := 0; i < 1000; i++ {
		buf := make([]byte, 4)
		d.regRead(p, nvme.RegCSTS, buf)
		if binary.LittleEndian.Uint32(buf)&nvme.CSTSReady != 0 {
			return nil
		}
		p.Sleep(10 * sim.Microsecond)
	}
	return fmt.Errorf("spdk: controller never became ready")
}

// Register access helpers.

func (d *Driver) regWrite32(p *sim.Proc, off uint64, v uint32) {
	d.host.Port.WriteB(p, d.bar+off, 4, binary.LittleEndian.AppendUint32(nil, v))
}

func (d *Driver) regWrite64(p *sim.Proc, off uint64, v uint64) {
	d.host.Port.WriteB(p, d.bar+off, 8, binary.LittleEndian.AppendUint64(nil, v))
}

func (d *Driver) regRead(p *sim.Proc, off uint64, buf []byte) {
	d.host.Port.ReadB(p, d.bar+off, int64(len(buf)), buf)
}

func hostMemBase(h *pcie.Host) uint64 { return h.Mem.Base }
