// Package nvme models an NVMe SSD at protocol level: memory-mapped
// controller registers, admin and I/O submission/completion queues living in
// remote memory and fetched over the PCIe fabric, doorbells, PRP and
// PRP-list data pointers, and a multi-die NAND backend with a write buffer
// and firmware banding epochs.
//
// The model executes real wire encodings — 64-byte submission entries and
// 16-byte completion entries marshaled per the NVMe 1.4 layout — so the host
// driver (internal/spdk, internal/tapasco) and the FPGA NVMe Streamer
// (internal/streamer) interact with it exactly the way the paper's hardware
// does, including the Streamer's on-the-fly PRP-list synthesis.
package nvme

import (
	"encoding/binary"
	"fmt"
)

// PageSize is the memory page size PRPs operate on.
const PageSize = 4096

// SQESize and CQESize are the wire sizes of queue entries.
const (
	SQESize = 64
	CQESize = 16
)

// Admin opcodes: the bring-up set a host driver issues (PAPER.md §1 item
// 4). Any other admin opcode completes with Invalid Opcode.
const (
	OpCreateIOSQ  uint8 = 0x01
	OpCreateIOCQ  uint8 = 0x05
	OpIdentify    uint8 = 0x06
	OpSetFeatures uint8 = 0x09
)

// I/O opcodes: the Streamer and the host drivers issue only reads and
// writes. Any other I/O opcode completes with Invalid Opcode.
const (
	OpWrite uint8 = 0x01
	OpRead  uint8 = 0x02
)

// Status codes (generic status, SCT 0).
const (
	StatusSuccess           uint16 = 0x00
	StatusInvalidOpcode     uint16 = 0x01
	StatusInvalidField      uint16 = 0x02
	StatusCommandIDConflict uint16 = 0x03 // CID still outstanding on its queue
	StatusDataTransferError uint16 = 0x04
	StatusInternalError     uint16 = 0x06
	StatusAbortRequested    uint16 = 0x07
	StatusInvalidNSID       uint16 = 0x0B
	StatusLBAOutOfRange     uint16 = 0x80
	StatusCapacityExceeded  uint16 = 0x81
)

// RetryableStatus reports whether a command completed with this status may
// be resubmitted: internal and data-transfer errors are transient
// controller-side conditions worth retrying, while protocol violations and
// range errors are deterministic — the retry would fail identically.
func RetryableStatus(s uint16) bool {
	return s == StatusInternalError || s == StatusDataTransferError
}

// Feature identifiers.
const (
	FeatureNumQueues uint8 = 0x07
)

// Identify CNS values.
const (
	CNSNamespace  uint32 = 0x00
	CNSController uint32 = 0x01
)

// Command is a decoded 64-byte submission queue entry.
type Command struct {
	Opcode uint8
	// PSDT selects PRPs (0) or SGLs (1/2). The model, like the paper,
	// only implements PRPs ("SGLs are not supported by many NVMe drives
	// and therefore are not employed by this work", §2.2); SGL commands
	// complete with an Invalid Field status.
	PSDT  uint8
	CID   uint16
	NSID  uint32
	PRP1  uint64
	PRP2  uint64
	CDW10 uint32
	CDW11 uint32
	CDW12 uint32
	CDW13 uint32
	CDW14 uint32
	CDW15 uint32
}

// Marshal encodes the command into a 64-byte SQE.
func (c *Command) Marshal() []byte {
	b := make([]byte, SQESize)
	c.MarshalInto(b)
	return b
}

// MarshalInto encodes the command into b, which must hold SQESize bytes.
// The buffer may be reused: every byte of the entry is written.
func (c *Command) MarshalInto(b []byte) {
	b = b[:SQESize]
	for i := range b {
		b[i] = 0
	}
	binary.LittleEndian.PutUint32(b[0:], uint32(c.Opcode)|uint32(c.PSDT&0x3)<<14|uint32(c.CID)<<16)
	binary.LittleEndian.PutUint32(b[4:], c.NSID)
	binary.LittleEndian.PutUint64(b[24:], c.PRP1)
	binary.LittleEndian.PutUint64(b[32:], c.PRP2)
	binary.LittleEndian.PutUint32(b[40:], c.CDW10)
	binary.LittleEndian.PutUint32(b[44:], c.CDW11)
	binary.LittleEndian.PutUint32(b[48:], c.CDW12)
	binary.LittleEndian.PutUint32(b[52:], c.CDW13)
	binary.LittleEndian.PutUint32(b[56:], c.CDW14)
	binary.LittleEndian.PutUint32(b[60:], c.CDW15)
}

// UnmarshalCommand decodes a 64-byte SQE.
func UnmarshalCommand(b []byte) (Command, error) {
	if len(b) < SQESize {
		return Command{}, fmt.Errorf("nvme: SQE needs %d bytes, have %d", SQESize, len(b))
	}
	dw0 := binary.LittleEndian.Uint32(b[0:])
	return Command{
		Opcode: uint8(dw0),
		PSDT:   uint8(dw0>>14) & 0x3,
		CID:    uint16(dw0 >> 16),
		NSID:   binary.LittleEndian.Uint32(b[4:]),
		PRP1:   binary.LittleEndian.Uint64(b[24:]),
		PRP2:   binary.LittleEndian.Uint64(b[32:]),
		CDW10:  binary.LittleEndian.Uint32(b[40:]),
		CDW11:  binary.LittleEndian.Uint32(b[44:]),
		CDW12:  binary.LittleEndian.Uint32(b[48:]),
		CDW13:  binary.LittleEndian.Uint32(b[52:]),
		CDW14:  binary.LittleEndian.Uint32(b[56:]),
		CDW15:  binary.LittleEndian.Uint32(b[60:]),
	}, nil
}

// SLBA returns the starting LBA of a read/write command (CDW10/11).
func (c *Command) SLBA() uint64 {
	return uint64(c.CDW10) | uint64(c.CDW11)<<32
}

// SetSLBA stores the starting LBA into CDW10/11.
func (c *Command) SetSLBA(slba uint64) {
	c.CDW10 = uint32(slba)
	c.CDW11 = uint32(slba >> 32)
}

// NLB returns the zero-based number of logical blocks (CDW12 bits 15:0).
func (c *Command) NLB() uint32 { return c.CDW12 & 0xFFFF }

// SetNLB stores the zero-based block count.
func (c *Command) SetNLB(nlb uint32) {
	c.CDW12 = (c.CDW12 &^ 0xFFFF) | (nlb & 0xFFFF)
}

// Completion is a decoded 16-byte completion queue entry.
type Completion struct {
	DW0    uint32 // command specific
	SQHead uint16
	SQID   uint16
	CID    uint16
	Phase  bool
	Status uint16
}

// MarshalInto encodes the completion into b, which must hold CQESize bytes.
// The buffer may be reused: every byte of the entry is written.
func (c *Completion) MarshalInto(b []byte) {
	b = b[:CQESize]
	binary.LittleEndian.PutUint32(b[0:], c.DW0)
	binary.LittleEndian.PutUint32(b[4:], 0)
	binary.LittleEndian.PutUint32(b[8:], uint32(c.SQHead)|uint32(c.SQID)<<16)
	dw3 := uint32(c.CID)
	if c.Phase {
		dw3 |= 1 << 16
	}
	dw3 |= uint32(c.Status&0x7FFF) << 17
	binary.LittleEndian.PutUint32(b[12:], dw3)
}

// UnmarshalCompletion decodes a 16-byte CQE.
func UnmarshalCompletion(b []byte) (Completion, error) {
	if len(b) < CQESize {
		return Completion{}, fmt.Errorf("nvme: CQE needs %d bytes, have %d", CQESize, len(b))
	}
	dw2 := binary.LittleEndian.Uint32(b[8:])
	dw3 := binary.LittleEndian.Uint32(b[12:])
	return Completion{
		DW0:    binary.LittleEndian.Uint32(b[0:]),
		SQHead: uint16(dw2),
		SQID:   uint16(dw2 >> 16),
		CID:    uint16(dw3),
		Phase:  dw3&(1<<16) != 0,
		Status: uint16(dw3 >> 17),
	}, nil
}

// StatusError wraps a non-success completion status as a Go error.
type StatusError struct {
	Op     uint8
	CID    uint16
	Status uint16
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("nvme: opcode %#x cid %d failed with status %#x", e.Op, e.CID, e.Status)
}

// Controller register offsets within BAR0.
const (
	RegCAP  = 0x00 // capabilities, 8 bytes
	RegVS   = 0x08 // controller version
	RegCC   = 0x14 // controller configuration
	RegCSTS = 0x1C // controller status
	RegAQA  = 0x24 // admin queue attributes
	RegASQ  = 0x28 // admin SQ base, 8 bytes
	RegACQ  = 0x30 // admin CQ base, 8 bytes
	// RegDoorbellBase is the start of the doorbell region. Stride is 4
	// bytes with no spacing (CAP.DSTRD = 0): SQ y tail at base + (2y)*4,
	// CQ y head at base + (2y+1)*4.
	RegDoorbellBase = 0x1000
)

// CC bits.
const (
	CCEnable uint32 = 1 << 0
)

// CSTS bits.
const (
	CSTSReady uint32 = 1 << 0
	// CSTSFatal is CSTS.CFS, the controller fatal status: latched when the
	// controller hits an unrecoverable internal error (including protocol
	// violations on registers and doorbells). Only a controller reset
	// (CC.EN 1→0) clears it.
	CSTSFatal uint32 = 1 << 1
)

// StatusControllerUnavailable is a vendor-specific status the host-side
// recovery synthesizes for commands it fails because the controller died
// and could not be revived within the reset budget. It never appears on the
// wire; like StatusAbortRequested it is terminal, not retryable.
const StatusControllerUnavailable uint16 = 0xC0

// BARSize is the register BAR size exposed by the model.
const BARSize = 16 * 1024
