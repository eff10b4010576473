package tapasco

import (
	"encoding/binary"
	"fmt"

	"snacc/internal/nvme"
	"snacc/internal/pcie"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// Driver is the custom host-side PCIe driver of §4.6: it owns the NVMe
// admin queue (deliberately kept on the host — "managing the NVMe admin
// queue ... on the FPGA side limits system debuggability") and performs the
// one-time initialization: admin queue setup, I/O queue creation pointing
// at the Streamer's windows, IOMMU grants, and Streamer configuration.
// After Setup returns, the host is out of the data path entirely.
type Driver struct {
	pl      *Platform
	ssdName string
	bar     uint64

	adminEntries int
	asq, acq     uint64
	sqTail       int
	cqHead       int
	phase        bool
	nextCID      uint16
	pending      map[uint16]func(nvme.Completion)

	lbaSize  int64
	nsBlocks uint64
}

const adminDepth = 16

// NewDriver prepares a driver for the SSD ssdName whose register BAR is at
// barBase. Loading the driver grants the SSD DMA access to host memory (the
// kernel maps the admin queues and identify buffers there).
func NewDriver(pl *Platform, ssdName string, barBase uint64) *Driver {
	d := &Driver{
		pl:           pl,
		ssdName:      ssdName,
		bar:          barBase,
		adminEntries: adminDepth,
		phase:        true,
		pending:      make(map[uint16]func(nvme.Completion)),
	}
	d.asq = pl.Host.Alloc(adminDepth*nvme.SQESize, nvme.PageSize)
	d.acq = pl.Host.Alloc(adminDepth*nvme.CQESize, nvme.PageSize)
	pl.Host.Mem.Watch(d.acq, adminDepth*nvme.CQESize, func(addr uint64, n int64, data []byte) {
		d.reap()
	})
	hostCfg := pl.cfg.Host
	pl.Fabric.IOMMU().Grant(ssdName, hostCfg.MemBase, hostCfg.MemSize)
	return d
}

// LBASize returns the namespace block size (after InitController).
func (d *Driver) LBASize() int64 { return d.lbaSize }

// CapacityBlocks returns the namespace capacity (after InitController).
func (d *Driver) CapacityBlocks() uint64 { return d.nsBlocks }

func (d *Driver) hostOff(bus uint64) uint64 { return bus - d.pl.Host.Mem.Base }

func (d *Driver) reap() {
	for {
		raw := make([]byte, nvme.CQESize)
		d.pl.Host.Mem.Store().ReadBytes(d.hostOff(d.acq)+uint64(d.cqHead*nvme.CQESize), raw)
		cqe, err := nvme.UnmarshalCompletion(raw)
		if err != nil || cqe.Phase != d.phase {
			return
		}
		d.cqHead++
		if d.cqHead == d.adminEntries {
			d.cqHead = 0
			d.phase = !d.phase
		}
		d.pl.Host.Port.Write(d.bar+nvme.RegDoorbellBase+4, 4, pcie.Bytes(binary.LittleEndian.AppendUint32(nil, uint32(d.cqHead))), nil)
		cb := d.pending[cqe.CID]
		delete(d.pending, cqe.CID)
		if cb == nil {
			panic("tapasco: admin completion without a waiter")
		}
		cb(cqe)
	}
}

// adminCmd submits one admin command and blocks until its completion.
func (d *Driver) adminCmd(p *sim.Proc, cmd nvme.Command) (nvme.Completion, error) {
	cmd.CID = d.nextCID
	d.nextCID = (d.nextCID + 1) % uint16(2*d.adminEntries)
	ch := sim.NewChan[nvme.Completion](d.pl.K, 1)
	d.pending[cmd.CID] = func(c nvme.Completion) { ch.TryPut(c) }
	d.pl.Host.Mem.Store().WriteBytes(d.hostOff(d.asq)+uint64(d.sqTail*nvme.SQESize), cmd.Marshal())
	d.sqTail = (d.sqTail + 1) % d.adminEntries
	d.pl.Host.Port.WriteB(p, d.bar+nvme.RegDoorbellBase, 4, binary.LittleEndian.AppendUint32(nil, uint32(d.sqTail)))
	cpl := ch.Get(p)
	if cpl.Status != nvme.StatusSuccess {
		return cpl, &nvme.StatusError{Op: cmd.Opcode, CID: cpl.CID, Status: cpl.Status}
	}
	return cpl, nil
}

// InitController resets and enables the NVMe controller and discovers the
// namespace geometry.
func (d *Driver) InitController(p *sim.Proc) error {
	h := d.pl.Host
	h.Port.WriteB(p, d.bar+nvme.RegCC, 4, binary.LittleEndian.AppendUint32(nil, 0))
	h.Port.WriteB(p, d.bar+nvme.RegAQA, 4, binary.LittleEndian.AppendUint32(nil, uint32(adminDepth-1)|uint32(adminDepth-1)<<16))
	h.Port.WriteB(p, d.bar+nvme.RegASQ, 8, binary.LittleEndian.AppendUint64(nil, d.asq))
	h.Port.WriteB(p, d.bar+nvme.RegACQ, 8, binary.LittleEndian.AppendUint64(nil, d.acq))
	h.Port.WriteB(p, d.bar+nvme.RegCC, 4, binary.LittleEndian.AppendUint32(nil, nvme.CCEnable))
	if err := d.pollCSTS(p, false, "controller never became ready", ready); err != nil {
		return err
	}
	idBuf := h.Alloc(nvme.PageSize, nvme.PageSize)
	if _, err := d.adminCmd(p, nvme.Command{Opcode: nvme.OpIdentify, PRP1: idBuf, CDW10: nvme.CNSController}); err != nil {
		return err
	}
	if _, err := d.adminCmd(p, nvme.Command{Opcode: nvme.OpIdentify, NSID: 1, PRP1: idBuf, CDW10: nvme.CNSNamespace}); err != nil {
		return err
	}
	ns := make([]byte, nvme.PageSize)
	h.Mem.Store().ReadBytes(d.hostOff(idBuf), ns)
	d.nsBlocks = binary.LittleEndian.Uint64(ns[0:8])
	d.lbaSize = 1 << ns[130]
	return nil
}

// AttachStreamer creates I/O queue pair qid on the SSD with the SQ and CQ
// located *inside the Streamer's FPGA window*, grants the IOMMU windows
// both directions need, and programs the Streamer's doorbell registers.
// This is the complete §4.6 sequence; afterwards the data path runs with
// no host involvement.
func (d *Driver) AttachStreamer(p *sim.Proc, st *streamer.Streamer, qid uint16) error {
	cfg := st.Config()
	// IOMMU: the SSD must reach the Streamer window (queues, PRP window,
	// payload buffers); the FPGA must reach the SSD doorbells and, for the
	// host-DRAM variant, the pinned buffers in host memory.
	iommu := d.pl.Fabric.IOMMU()
	iommu.Grant(d.ssdName, cfg.WindowBase, st.WindowSize())
	iommu.Grant(d.pl.cfg.CardName, d.bar, nvme.BARSize)
	if cfg.Variant == streamer.HostDRAM {
		hostCfg := d.pl.cfg.Host
		iommu.Grant(d.pl.cfg.CardName, hostCfg.MemBase, hostCfg.MemSize)
	}

	if err := d.createStreamerQueues(p, st, qid); err != nil {
		return err
	}
	// Wire the crash-recovery ladder: the Streamer polls CSTS for fatal
	// status and, when its breaker trips, calls back into the driver to
	// reset the controller and rebuild both queue levels.
	st.ConfigureStatus(d.bar + nvme.RegCSTS)
	st.SetResetHandler(func(p *sim.Proc) error {
		return d.ResetAndReattach(p, st, qid)
	})
	return nil
}

// createStreamerQueues creates one SSD I/O queue pair per Streamer queue —
// device qids qid..qid+IOQueues-1 — each pointing at the matching SQ/CQ
// window inside the Streamer's BAR region, and programs the Streamer with
// the doorbell addresses. Shared by first attach and post-reset reattach
// (the admin path is identical; the Streamer's replay re-syncs its cursors).
func (d *Driver) createStreamerQueues(p *sim.Proc, st *streamer.Streamer, qid uint16) error {
	depth := st.Config().QueueDepth
	for i := 0; i < st.IOQueues(); i++ {
		id := qid + uint16(i)
		if _, err := d.adminCmd(p, nvme.Command{
			Opcode: nvme.OpCreateIOCQ,
			PRP1:   st.CQBusAddr(i),
			CDW10:  uint32(id) | uint32(depth-1)<<16,
			CDW11:  1,
		}); err != nil {
			return fmt.Errorf("create IOCQ %d: %w", id, err)
		}
		if _, err := d.adminCmd(p, nvme.Command{
			Opcode: nvme.OpCreateIOSQ,
			PRP1:   st.SQBusAddr(i),
			CDW10:  uint32(id) | uint32(depth-1)<<16,
			CDW11:  1 | uint32(id)<<16,
		}); err != nil {
			return fmt.Errorf("create IOSQ %d: %w", id, err)
		}
		sqDB := d.bar + nvme.RegDoorbellBase + uint64(2*id)*4
		cqDB := d.bar + nvme.RegDoorbellBase + uint64(2*id+1)*4
		if i == 0 {
			st.Configure(sqDB, cqDB, d.lbaSize)
		} else {
			st.ConfigureQueue(i, sqDB, cqDB)
		}
	}
	return nil
}

// ResetController performs an NVMe controller-level reset after a crash:
// disable the controller (CC.EN=0, which clears a latched CSTS.CFS), rebuild
// the host-side admin queue state, reprogram the admin queue registers, and
// re-enable. Namespace geometry is kept from InitController. Returns an
// error when the controller stays fatal, never answers (surprise removal
// floats all-1s), or never becomes ready again.
func (d *Driver) ResetController(p *sim.Proc) error {
	h := d.pl.Host
	h.Port.WriteB(p, d.bar+nvme.RegCC, 4, binary.LittleEndian.AppendUint32(nil, 0))
	if err := d.pollCSTS(p, true, "controller never left ready/fatal state", func(v uint32) bool {
		return v&(nvme.CSTSReady|nvme.CSTSFatal) == 0
	}); err != nil {
		return err
	}
	// Discard stale admin state: any in-flight admin commands died with the
	// old controller generation, and the completion ring restarts at phase 1
	// — zero it so leftover entries cannot alias the new phase.
	d.sqTail, d.cqHead, d.phase = 0, 0, true
	d.pending = make(map[uint16]func(nvme.Completion))
	h.Mem.Store().WriteBytes(d.hostOff(d.acq), make([]byte, adminDepth*nvme.CQESize))
	h.Port.WriteB(p, d.bar+nvme.RegAQA, 4, binary.LittleEndian.AppendUint32(nil, uint32(adminDepth-1)|uint32(adminDepth-1)<<16))
	h.Port.WriteB(p, d.bar+nvme.RegASQ, 8, binary.LittleEndian.AppendUint64(nil, d.asq))
	h.Port.WriteB(p, d.bar+nvme.RegACQ, 8, binary.LittleEndian.AppendUint64(nil, d.acq))
	h.Port.WriteB(p, d.bar+nvme.RegCC, 4, binary.LittleEndian.AppendUint32(nil, nvme.CCEnable))
	return d.pollCSTS(p, true, "controller never became ready after reset", ready)
}

func ready(csts uint32) bool { return csts&nvme.CSTSReady != 0 }

// pollCSTS reads the controller status every 10 µs until done holds. It
// gives up with the timeout error after about 1000 polls, and at once on an
// all-1s read (surprise removal floats the registers) when absent is set.
func (d *Driver) pollCSTS(p *sim.Proc, absent bool, timeout string, done func(csts uint32) bool) error {
	for i := 0; ; i++ {
		buf := make([]byte, 4)
		d.pl.Host.Port.ReadB(p, d.bar+nvme.RegCSTS, 4, buf)
		v := binary.LittleEndian.Uint32(buf)
		if absent && v == ^uint32(0) {
			return fmt.Errorf("tapasco: controller absent (CSTS floats all-1s)")
		}
		if done(v) {
			return nil
		}
		if i > 1000 {
			return fmt.Errorf("tapasco: %s (CSTS %#x)", timeout, v)
		}
		p.Sleep(10 * sim.Microsecond)
	}
}

// ResetAndReattach is the full recovery sequence the Streamer's circuit
// breaker invokes: controller reset, then the I/O queues recreated at the
// Streamer's existing window addresses (the IOMMU grants from
// AttachStreamer still hold; re-running Configure refreshes the doorbell
// programming idempotently).
func (d *Driver) ResetAndReattach(p *sim.Proc, st *streamer.Streamer, qid uint16) error {
	if err := d.ResetController(p); err != nil {
		return err
	}
	return d.createStreamerQueues(p, st, qid)
}
