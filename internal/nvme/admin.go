package nvme

import (
	"encoding/binary"

	"snacc/internal/pcie"
)

// pendingCQs tracks CQs created before their paired SQ arrives. The model
// pairs SQ y with CQ y (the layout both our drivers use); mismatched
// pairings are rejected as invalid.
//
// executeAdmin runs one admin command to completion.
func (d *Device) executeAdmin(q *queuePair, cmd Command) {
	switch cmd.Opcode {
	case OpIdentify:
		d.adminIdentify(q, cmd)
	case OpGetLogPage:
		d.adminGetLogPage(q, cmd)
	case OpCreateIOCQ:
		d.adminCreateIOCQ(q, cmd)
	case OpCreateIOSQ:
		d.adminCreateIOSQ(q, cmd)
	case OpDeleteIOSQ, OpDeleteIOCQ:
		d.adminDeleteQueue(q, cmd)
	case OpSetFeatures:
		d.adminSetFeatures(q, cmd)
	case OpGetFeatures:
		d.adminGetFeatures(q, cmd)
	default:
		d.complete(q, cmd, StatusInvalidOpcode, 0)
	}
}

// adminIdentify writes a 4 KiB identify structure to PRP1.
func (d *Device) adminIdentify(q *queuePair, cmd Command) {
	cns := cmd.CDW10 & 0xFF
	data := make([]byte, PageSize)
	switch uint32(cns) {
	case CNSController:
		binary.LittleEndian.PutUint16(data[0:], 0x144D) // VID: Samsung
		copy(data[4:24], []byte("SNACCSIM-990PRO-2TB "))
		copy(data[24:64], []byte("Simulated Samsung SSD 990 PRO 2TB       "))
		// MDTS: max transfer = 4 KiB << MDTS; 2 MiB → 9.
		data[77] = 9
		// SQES/CQES: required and maximum entry sizes, log2 (64 / 16 B).
		data[512] = 0x66
		data[513] = 0x44
		binary.LittleEndian.PutUint32(data[516:], 1) // NN: one namespace
	case CNSNamespace:
		if cmd.NSID != 1 {
			d.complete(q, cmd, StatusInvalidNSID, 0)
			return
		}
		blocks := uint64(d.cfg.NamespaceBytes / d.cfg.LBASize)
		binary.LittleEndian.PutUint64(data[0:], blocks)  // NSZE
		binary.LittleEndian.PutUint64(data[8:], blocks)  // NCAP
		binary.LittleEndian.PutUint64(data[16:], blocks) // NUSE
		data[25] = 0                                     // NLBAF: one format
		data[26] = 0                                     // FLBAS: format 0
		// LBAF0 at byte 128: LBADS in bits 23:16.
		lbads := uint32(0)
		for s := d.cfg.LBASize; s > 1; s >>= 1 {
			lbads++
		}
		binary.LittleEndian.PutUint32(data[128:], lbads<<16)
	default:
		d.complete(q, cmd, StatusInvalidField, 0)
		return
	}
	d.port.Write(cmd.PRP1, PageSize, pcie.Bytes(data), func() {
		d.complete(q, cmd, StatusSuccess, 0)
	})
}

// cqPending holds CQ parameters until the matching SQ is created.
type cqPending struct {
	base    uint64
	entries int
}

var _ = cqPending{} // referenced via the device map below

func (d *Device) pendingCQs() map[uint16]cqPending {
	if d.cqPendingMap == nil {
		d.cqPendingMap = make(map[uint16]cqPending)
	}
	return d.cqPendingMap
}

// adminCreateIOCQ records a completion queue (CDW10: QID | QSIZE<<16,
// CDW11 bit 0: physically contiguous).
func (d *Device) adminCreateIOCQ(q *queuePair, cmd Command) {
	qid := uint16(cmd.CDW10 & 0xFFFF)
	size := int(cmd.CDW10>>16) + 1
	if qid == 0 || int(qid) > d.cfg.MaxIOQueuePairs || cmd.CDW11&1 == 0 {
		d.complete(q, cmd, StatusInvalidField, 0)
		return
	}
	if _, exists := d.queues[qid]; exists {
		d.complete(q, cmd, StatusInvalidField, 0)
		return
	}
	d.pendingCQs()[qid] = cqPending{base: cmd.PRP1, entries: size}
	d.complete(q, cmd, StatusSuccess, 0)
}

// adminCreateIOSQ pairs a submission queue with its CQ (CDW11 bits 31:16).
// The model requires SQ y ↔ CQ y with equal depths.
func (d *Device) adminCreateIOSQ(q *queuePair, cmd Command) {
	qid := uint16(cmd.CDW10 & 0xFFFF)
	size := int(cmd.CDW10>>16) + 1
	cqid := uint16(cmd.CDW11 >> 16)
	pend, ok := d.pendingCQs()[qid]
	if !ok || cqid != qid || pend.entries != size || cmd.CDW11&1 == 0 {
		d.complete(q, cmd, StatusInvalidField, 0)
		return
	}
	delete(d.cqPendingMap, qid)
	d.queues[qid] = &queuePair{
		id:      qid,
		sqBase:  cmd.PRP1,
		cqBase:  pend.base,
		entries: size,
		cqPhase: true,
	}
	d.complete(q, cmd, StatusSuccess, 0)
}

// adminDeleteQueue tears down an I/O queue pair (either half removes both;
// the model keeps them paired).
func (d *Device) adminDeleteQueue(q *queuePair, cmd Command) {
	qid := uint16(cmd.CDW10 & 0xFFFF)
	if qid == 0 {
		d.complete(q, cmd, StatusInvalidField, 0)
		return
	}
	delete(d.queues, qid)
	delete(d.pendingCQs(), qid)
	d.complete(q, cmd, StatusSuccess, 0)
}

// adminSetFeatures handles Number of Queues (FID 0x07); the grant is echoed
// in DW0 as (NCQA<<16)|NSQA, both zero-based.
func (d *Device) adminSetFeatures(q *queuePair, cmd Command) {
	fid := uint8(cmd.CDW10 & 0xFF)
	if fid != FeatureNumQueues {
		d.complete(q, cmd, StatusInvalidField, 0)
		return
	}
	reqSQ := int(cmd.CDW11&0xFFFF) + 1
	reqCQ := int(cmd.CDW11>>16) + 1
	grant := func(n int) int {
		if n > d.cfg.MaxIOQueuePairs {
			return d.cfg.MaxIOQueuePairs
		}
		return n
	}
	dw0 := uint32(grant(reqCQ)-1)<<16 | uint32(grant(reqSQ)-1)
	d.complete(q, cmd, StatusSuccess, dw0)
}

// adminGetFeatures mirrors SetFeatures for Number of Queues.
func (d *Device) adminGetFeatures(q *queuePair, cmd Command) {
	fid := uint8(cmd.CDW10 & 0xFF)
	if fid != FeatureNumQueues {
		d.complete(q, cmd, StatusInvalidField, 0)
		return
	}
	n := uint32(d.cfg.MaxIOQueuePairs - 1)
	d.complete(q, cmd, StatusSuccess, n<<16|n)
}
