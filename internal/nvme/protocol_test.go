package nvme

import (
	"bytes"
	"encoding/binary"
	"testing"

	"snacc/internal/pcie"
	"snacc/internal/sim"
)

// testbench is a minimal hand-rolled host for protocol-level device tests:
// it writes SQEs straight into host memory and rings doorbells from kernel
// context, bypassing the driver packages so the device's protocol handling
// is exercised in isolation.
type testbench struct {
	t    *testing.T
	k    *sim.Kernel
	host *pcie.Host
	dev  *Device
	bar  uint64

	asq, acq uint64
	aTail    int
	aHead    int
	aPhase   bool

	ioSQ, ioCQ uint64
	ioTail     int
	ioHead     int
	ioPhase    bool

	completions []Completion
}

const tbDepth = 16

func newTestbench(t *testing.T, mut func(*Config)) *testbench {
	t.Helper()
	k := sim.NewKernel()
	f := pcie.NewFabric(k, pcie.DefaultConfig())
	host := pcie.NewHost(f, pcie.DefaultHostConfig())
	cfg := DefaultConfig("ssd0", 0x10_0000_0000)
	cfg.Functional = true
	if mut != nil {
		mut(&cfg)
	}
	dev := New(k, f, cfg)
	f.IOMMU().Grant("ssd0", pcie.DefaultHostConfig().MemBase, pcie.DefaultHostConfig().MemSize)
	tb := &testbench{
		t: t, k: k, host: host, dev: dev, bar: cfg.BARBase,
		asq: host.Alloc(tbDepth*SQESize, PageSize), acq: host.Alloc(tbDepth*CQESize, PageSize),
		ioSQ: host.Alloc(tbDepth*SQESize, PageSize), ioCQ: host.Alloc(tbDepth*CQESize, PageSize),
		aPhase: true, ioPhase: true,
	}
	host.Mem.Watch(tb.acq, tbDepth*CQESize, func(uint64, int64, []byte) { tb.reap(&tb.aHead, &tb.aPhase, tb.acq) })
	host.Mem.Watch(tb.ioCQ, tbDepth*CQESize, func(uint64, int64, []byte) { tb.reap(&tb.ioHead, &tb.ioPhase, tb.ioCQ) })
	return tb
}

func (tb *testbench) reap(head *int, phase *bool, cq uint64) {
	for {
		raw := make([]byte, CQESize)
		tb.host.Mem.Store().ReadBytes(cq-tb.host.Mem.Base+uint64(*head*CQESize), raw)
		cqe, err := UnmarshalCompletion(raw)
		if err != nil || cqe.Phase != *phase {
			return
		}
		*head++
		if *head == tbDepth {
			*head = 0
			*phase = !*phase
		}
		tb.completions = append(tb.completions, cqe)
	}
}

// enable runs the register-level bring-up. Queue memory is zeroed first,
// as a real driver must: stale completion entries from a previous life
// would alias the fresh phase.
func (tb *testbench) enable() {
	h := tb.host
	zero := make([]byte, tbDepth*CQESize)
	h.Mem.Store().WriteBytes(tb.acq-h.Mem.Base, zero)
	h.Mem.Store().WriteBytes(tb.ioCQ-h.Mem.Base, zero)
	h.Port.Write(tb.bar+RegAQA, 4, pcie.Bytes(binary.LittleEndian.AppendUint32(nil, uint32(tbDepth-1)|uint32(tbDepth-1)<<16)), nil)
	h.Port.Write(tb.bar+RegASQ, 8, pcie.Bytes(binary.LittleEndian.AppendUint64(nil, tb.asq)), nil)
	h.Port.Write(tb.bar+RegACQ, 8, pcie.Bytes(binary.LittleEndian.AppendUint64(nil, tb.acq)), nil)
	h.Port.Write(tb.bar+RegCC, 4, pcie.Bytes(binary.LittleEndian.AppendUint32(nil, CCEnable)), nil)
	tb.k.Run(0)
}

// admin submits one admin SQE and runs the simulation until idle.
func (tb *testbench) admin(cmd Command) Completion {
	tb.host.Mem.Store().WriteBytes(tb.asq-tb.host.Mem.Base+uint64(tb.aTail*SQESize), cmd.Marshal())
	tb.aTail = (tb.aTail + 1) % tbDepth
	before := len(tb.completions)
	tb.host.Port.Write(tb.bar+RegDoorbellBase, 4, pcie.Bytes(binary.LittleEndian.AppendUint32(nil, uint32(tb.aTail))), nil)
	tb.k.Run(0)
	if len(tb.completions) <= before {
		tb.t.Fatalf("admin command %#x produced no completion", cmd.Opcode)
	}
	return tb.completions[len(tb.completions)-1]
}

// createIOQueues builds the standard qid-1 pair.
func (tb *testbench) createIOQueues() {
	if c := tb.admin(Command{Opcode: OpCreateIOCQ, CID: 1, PRP1: tb.ioCQ,
		CDW10: 1 | uint32(tbDepth-1)<<16, CDW11: 1}); c.Status != StatusSuccess {
		tb.t.Fatalf("CreateIOCQ status %#x", c.Status)
	}
	if c := tb.admin(Command{Opcode: OpCreateIOSQ, CID: 2, PRP1: tb.ioSQ,
		CDW10: 1 | uint32(tbDepth-1)<<16, CDW11: 1 | 1<<16}); c.Status != StatusSuccess {
		tb.t.Fatalf("CreateIOSQ status %#x", c.Status)
	}
}

// io submits one I/O SQE and returns its completion.
func (tb *testbench) io(cmd Command) Completion {
	tb.host.Mem.Store().WriteBytes(tb.ioSQ-tb.host.Mem.Base+uint64(tb.ioTail*SQESize), cmd.Marshal())
	tb.ioTail = (tb.ioTail + 1) % tbDepth
	before := len(tb.completions)
	tb.host.Port.Write(tb.bar+RegDoorbellBase+8, 4, pcie.Bytes(binary.LittleEndian.AppendUint32(nil, uint32(tb.ioTail))), nil)
	tb.k.Run(0)
	if len(tb.completions) <= before {
		tb.t.Fatalf("I/O command %#x produced no completion", cmd.Opcode)
	}
	return tb.completions[len(tb.completions)-1]
}

func TestProtocolBringUpAndIdentify(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	idBuf := tb.host.Alloc(PageSize, PageSize)
	if c := tb.admin(Command{Opcode: OpIdentify, CID: 7, PRP1: idBuf, CDW10: CNSController}); c.Status != StatusSuccess || c.CID != 7 {
		t.Fatalf("identify: %+v", c)
	}
	ctrl := make([]byte, PageSize)
	tb.host.Mem.Store().ReadBytes(idBuf-tb.host.Mem.Base, ctrl)
	if ctrl[0] != 0x4D || ctrl[1] != 0x14 {
		t.Errorf("VID = %x%x, want Samsung 144d", ctrl[1], ctrl[0])
	}
	if ctrl[77] != 9 {
		t.Errorf("MDTS = %d, want 9 (2 MiB)", ctrl[77])
	}
}

func TestProtocolSGLRejected(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	buf := tb.host.Alloc(PageSize, PageSize)
	cmd := Command{Opcode: OpRead, CID: 3, NSID: 1, PSDT: 1, PRP1: buf}
	cmd.SetNLB(7)
	if c := tb.io(cmd); c.Status != StatusInvalidField {
		t.Fatalf("SGL command status %#x, want invalid field", c.Status)
	}
}

// TestProtocolInvalidOpcode: every I/O opcode but Read and Write completes
// with Invalid Opcode, including the NVM commands no host here issues.
// TestProtocolDatasetManagementRejected covers opcode 0x09.
func TestProtocolInvalidOpcode(t *testing.T) {
	for _, c := range []struct {
		name   string
		opcode uint8
	}{
		{"flush", 0x00},
		{"write-zeroes", 0x08},
		{"unassigned", 0x7F},
	} {
		t.Run(c.name, func(t *testing.T) {
			tb := newTestbench(t, nil)
			tb.enable()
			tb.createIOQueues()
			if cqe := tb.io(Command{Opcode: c.opcode, CID: 4, NSID: 1, CDW11: 1 << 2}); cqe.Status != StatusInvalidOpcode {
				t.Fatalf("opcode %#x: status %#x, want invalid opcode", c.opcode, cqe.Status)
			}
		})
	}
}

// TestProtocolDatasetManagementRejected: Dataset Management (opcode 0x09) is
// not modeled. Each form a host could send, from a deallocate of written
// sectors to a hint-only command, completes with Invalid Opcode and leaves
// the media as it was.
func TestProtocolDatasetManagementRejected(t *testing.T) {
	for _, c := range []struct {
		name   string
		ranges [][2]uint64 // {SLBA, NLB} of each range entry
		cdw11  uint32      // 1<<2 is the Deallocate attribute
	}{
		{"trim", [][2]uint64{{100, 1}, {5000, 1}}, 1 << 2},
		{"hint", nil, 0},
		{"out-of-range", [][2]uint64{{1 << 60, 1}}, 1 << 2},
		{"large-range", [][2]uint64{{2049, 256 << 20 / 512}}, 1 << 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			tb := newTestbench(t, nil)
			tb.enable()
			tb.createIOQueues()
			store := tb.dev.NAND().Store()
			want := bytes.Repeat([]byte{0xCD}, PageSize)
			buf := tb.host.Alloc(PageSize, PageSize)
			tb.host.Mem.Store().WriteBytes(buf-tb.host.Mem.Base, want)
			var list []byte
			for i, r := range c.ranges {
				list = binary.LittleEndian.AppendUint32(list, 0) // context attributes
				list = binary.LittleEndian.AppendUint32(list, uint32(r[1]))
				list = binary.LittleEndian.AppendUint64(list, r[0])
				if r[0] >= 1<<40 {
					continue
				}
				w := Command{Opcode: OpWrite, CID: uint16(40 + i), NSID: 1, PRP1: buf}
				w.SetSLBA(r[0])
				w.SetNLB(7)
				if cqe := tb.io(w); cqe.Status != StatusSuccess {
					t.Fatalf("write at LBA %d: %#x", r[0], cqe.Status)
				}
			}
			listBuf := tb.host.Alloc(PageSize, PageSize)
			tb.host.Mem.Store().WriteBytes(listBuf-tb.host.Mem.Base, list)
			nr := uint32(max(len(c.ranges)-1, 0)) // 0-based range count
			pages := store.Pages()
			cqe := tb.io(Command{Opcode: 0x09, CID: 34, NSID: 1, PRP1: listBuf, CDW10: nr, CDW11: c.cdw11})
			if cqe.Status != StatusInvalidOpcode {
				t.Fatalf("dataset management: status %#x, want invalid opcode", cqe.Status)
			}
			if got := store.Pages(); got != pages {
				t.Errorf("media store went from %d to %d pages", pages, got)
			}
			got := make([]byte, PageSize)
			for _, r := range c.ranges {
				if r[0] >= 1<<40 {
					continue
				}
				if store.ReadBytes(r[0]*512, got); !bytes.Equal(got, want) {
					t.Errorf("data written at LBA %d changed", r[0])
				}
			}
		})
	}
}

func TestProtocolBadNSID(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	buf := tb.host.Alloc(PageSize, PageSize)
	cmd := Command{Opcode: OpWrite, CID: 5, NSID: 9, PRP1: buf}
	cmd.SetNLB(0)
	if c := tb.io(cmd); c.Status != StatusInvalidNSID {
		t.Fatalf("status %#x, want invalid NSID", c.Status)
	}
}

func TestProtocolMisalignedPRP2(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	buf := tb.host.Alloc(2*PageSize, PageSize)
	cmd := Command{Opcode: OpRead, CID: 6, NSID: 1, PRP1: buf, PRP2: buf + 100}
	cmd.SetNLB(uint32(2*PageSize/512) - 1)
	if c := tb.io(cmd); c.Status != StatusInvalidField {
		t.Fatalf("status %#x, want invalid field for misaligned PRP2", c.Status)
	}
}

func TestProtocolCreateSQWithoutCQFails(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	c := tb.admin(Command{Opcode: OpCreateIOSQ, CID: 2, PRP1: tb.ioSQ,
		CDW10: 2 | uint32(tbDepth-1)<<16, CDW11: 1 | 2<<16})
	if c.Status != StatusInvalidField {
		t.Fatalf("SQ without CQ: status %#x", c.Status)
	}
}

func TestProtocolFaultInjection(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	n := 0
	tb.dev.SetFaultInjector(func(cmd Command) uint16 {
		n++
		if n%2 == 1 {
			return StatusInternalError
		}
		return StatusSuccess
	})
	buf := tb.host.Alloc(PageSize, PageSize)
	cmd := Command{Opcode: OpWrite, CID: 10, NSID: 1, PRP1: buf}
	cmd.SetNLB(7)
	if c := tb.io(cmd); c.Status != StatusInternalError {
		t.Fatalf("first command status %#x, want injected error", c.Status)
	}
	cmd.CID = 11
	if c := tb.io(cmd); c.Status != StatusSuccess {
		t.Fatalf("second command status %#x, want success", c.Status)
	}
	if tb.dev.Errors() != 1 {
		t.Fatalf("device error counter = %d", tb.dev.Errors())
	}
}

func TestProtocolControllerReset(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	// CC.EN = 0 tears down all queues.
	tb.host.Port.Write(tb.bar+RegCC, 4, pcie.Bytes(binary.LittleEndian.AppendUint32(nil, 0)), nil)
	tb.k.Run(0)
	csts := make([]byte, 4)
	tb.host.Port.Read(tb.bar+RegCSTS, 4, pcie.Bytes(csts), nil)
	tb.k.Run(0)
	if csts[0]&1 != 0 {
		t.Fatal("CSTS.RDY still set after disable")
	}
	// Re-enable and rebuild; the device must come back cleanly.
	tb.aTail, tb.aHead, tb.aPhase = 0, 0, true
	tb.ioTail, tb.ioHead, tb.ioPhase = 0, 0, true
	tb.enable()
	tb.createIOQueues()
	buf := tb.host.Alloc(PageSize, PageSize)
	cmd := Command{Opcode: OpRead, CID: 12, NSID: 1, PRP1: buf}
	cmd.SetNLB(7)
	if c := tb.io(cmd); c.Status != StatusSuccess {
		t.Fatalf("I/O after reset: %#x", c.Status)
	}
}

func TestProtocolMDTSExceeded(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	buf := tb.host.Alloc(PageSize, PageSize)
	cmd := Command{Opcode: OpRead, CID: 13, NSID: 1, PRP1: buf}
	cmd.SetNLB(uint32(MaxTransferBytes / 512)) // one block over MDTS
	if c := tb.io(cmd); c.Status != StatusInvalidField {
		t.Fatalf("over-MDTS status %#x, want invalid field", c.Status)
	}
}

func TestProtocolHugeSLBANoOverflow(t *testing.T) {
	// An SLBA large enough to overflow byte arithmetic must still be
	// rejected, not wrap into a valid offset.
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	buf := tb.host.Alloc(PageSize, PageSize)
	cmd := Command{Opcode: OpRead, CID: 40, NSID: 1, PRP1: buf}
	cmd.SetSLBA(1 << 62)
	cmd.SetNLB(7)
	if c := tb.io(cmd); c.Status != StatusLBAOutOfRange {
		t.Fatalf("huge-SLBA status %#x, want LBA out of range", c.Status)
	}
}
