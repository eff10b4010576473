package nvme

import (
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

func le32b(v uint32) []byte { return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)} }
func le64b(v uint64) []byte {
	b := make([]byte, 8)
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

// enable runs the register-level bring-up. Queue memory is zeroed first,
// as a real driver must: stale completion entries from a previous life
// would alias the fresh phase.
func (tb *testbench) enable() {
	h := tb.host
	zero := make([]byte, tbDepth*CQESize)
	h.Mem.Store().WriteBytes(tb.acq-h.Mem.Base, zero)
	h.Mem.Store().WriteBytes(tb.ioCQ-h.Mem.Base, zero)
	h.Port.Write(tb.bar+RegAQA, 4, pcie.Bytes(le32b(uint32(tbDepth-1)|uint32(tbDepth-1)<<16)), nil)
	h.Port.Write(tb.bar+RegASQ, 8, pcie.Bytes(le64b(tb.asq)), nil)
	h.Port.Write(tb.bar+RegACQ, 8, pcie.Bytes(le64b(tb.acq)), nil)
	h.Port.Write(tb.bar+RegCC, 4, pcie.Bytes(le32b(CCEnable)), nil)
	tb.k.Run(0)
}

// admin submits one admin SQE and runs the simulation until idle.
func (tb *testbench) admin(cmd Command) Completion {
	tb.host.Mem.Store().WriteBytes(tb.asq-tb.host.Mem.Base+uint64(tb.aTail*SQESize), cmd.Marshal())
	tb.aTail = (tb.aTail + 1) % tbDepth
	before := len(tb.completions)
	tb.host.Port.Write(tb.bar+RegDoorbellBase, 4, pcie.Bytes(le32b(uint32(tb.aTail))), nil)
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
	tb.host.Port.Write(tb.bar+RegDoorbellBase+8, 4, pcie.Bytes(le32b(uint32(tb.ioTail))), nil)
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

func TestProtocolInvalidOpcode(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	if c := tb.io(Command{Opcode: 0x7F, CID: 4, NSID: 1}); c.Status != StatusInvalidOpcode {
		t.Fatalf("status %#x, want invalid opcode", c.Status)
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

func TestProtocolQueueDeletion(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	// Delete SQ then CQ (spec order).
	if c := tb.admin(Command{Opcode: OpDeleteIOSQ, CID: 8, CDW10: 1}); c.Status != StatusSuccess {
		t.Fatalf("delete SQ: %#x", c.Status)
	}
	// The pair is gone; re-creating it must work.
	tb.createIOQueues()
	buf := tb.host.Alloc(PageSize, PageSize)
	cmd := Command{Opcode: OpRead, CID: 9, NSID: 1, PRP1: buf}
	cmd.SetNLB(7)
	if c := tb.io(cmd); c.Status != StatusSuccess {
		t.Fatalf("I/O after re-create: %#x", c.Status)
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

func TestProtocolGetFeaturesNumQueues(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	c := tb.admin(Command{Opcode: OpGetFeatures, CID: 3, CDW10: uint32(FeatureNumQueues)})
	if c.Status != StatusSuccess {
		t.Fatalf("get features: %#x", c.Status)
	}
	if c.DW0&0xFFFF == 0 && c.DW0>>16 == 0 {
		t.Fatal("feature response reports zero queues")
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
	tb.host.Port.Write(tb.bar+RegCC, 4, pcie.Bytes(le32b(0)), nil)
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

func TestProtocolSMARTLogPage(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	buf := tb.host.Alloc(PageSize, PageSize)
	wcmd := Command{Opcode: OpWrite, CID: 20, NSID: 1, PRP1: buf}
	wcmd.SetNLB(7) // 4 KiB
	if c := tb.io(wcmd); c.Status != StatusSuccess {
		t.Fatalf("write: %#x", c.Status)
	}
	logBuf := tb.host.Alloc(PageSize, PageSize)
	lcmd := Command{Opcode: OpGetLogPage, CID: 21, PRP1: logBuf,
		CDW10: uint32(LogPageSMART) | uint32(512/4-1)<<16}
	if c := tb.admin(lcmd); c.Status != StatusSuccess {
		t.Fatalf("get log page: %#x", c.Status)
	}
	page := make([]byte, 512)
	tb.host.Mem.Store().ReadBytes(logBuf-tb.host.Mem.Base, page)
	writes := le64(page[80:88])
	if writes != 1 {
		t.Fatalf("SMART host writes = %d, want 1", writes)
	}
	units := le64(page[48:56])
	if units != 1 {
		t.Fatalf("SMART data units written = %d, want 1", units)
	}
}

func TestProtocolErrorLogPage(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	// Provoke two errors: bad NSID and out-of-range LBA.
	bad := Command{Opcode: OpRead, CID: 22, NSID: 7, PRP1: tb.host.Alloc(PageSize, PageSize)}
	bad.SetNLB(7)
	tb.io(bad)
	oob := Command{Opcode: OpRead, CID: 23, NSID: 1, PRP1: tb.host.Alloc(PageSize, PageSize)}
	oob.SetSLBA(1 << 40)
	oob.SetNLB(7)
	tb.io(oob)

	entries := tb.dev.ErrorLog()
	if len(entries) != 2 {
		t.Fatalf("error log entries = %d, want 2", len(entries))
	}
	if entries[1].CID != 23 || entries[1].Status != StatusLBAOutOfRange {
		t.Fatalf("latest error = %+v", entries[1])
	}

	logBuf := tb.host.Alloc(PageSize, PageSize)
	lcmd := Command{Opcode: OpGetLogPage, CID: 24, PRP1: logBuf,
		CDW10: uint32(LogPageError) | uint32(128/4-1)<<16}
	if c := tb.admin(lcmd); c.Status != StatusSuccess {
		t.Fatalf("get log page: %#x", c.Status)
	}
	page := make([]byte, 128)
	tb.host.Mem.Store().ReadBytes(logBuf-tb.host.Mem.Base, page)
	// Newest first: entry 0 is the CID-23 error.
	if cid := le32(page[10:14]) & 0xFFFF; cid != 23 {
		t.Fatalf("newest log entry CID = %d, want 23", cid)
	}
	if cnt := le64(page[0:8]); cnt != 2 {
		t.Fatalf("newest error count = %d, want 2", cnt)
	}
}

func TestProtocolUnknownLogPage(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	buf := tb.host.Alloc(PageSize, PageSize)
	c := tb.admin(Command{Opcode: OpGetLogPage, CID: 25, PRP1: buf, CDW10: 0x7F})
	if c.Status != StatusInvalidField {
		t.Fatalf("unknown LID status %#x", c.Status)
	}
}

func TestProtocolWriteZeroes(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	buf := tb.host.Alloc(PageSize, PageSize)
	want := make([]byte, PageSize)
	for i := range want {
		want[i] = 0xAB
	}
	tb.host.Mem.Store().WriteBytes(buf-tb.host.Mem.Base, want)
	w := Command{Opcode: OpWrite, CID: 30, NSID: 1, PRP1: buf}
	w.SetNLB(7)
	if c := tb.io(w); c.Status != StatusSuccess {
		t.Fatalf("write: %#x", c.Status)
	}
	z := Command{Opcode: OpWriteZeroes, CID: 31, NSID: 1}
	z.SetNLB(3) // first 2 KiB
	if c := tb.io(z); c.Status != StatusSuccess {
		t.Fatalf("write zeroes: %#x", c.Status)
	}
	got := make([]byte, PageSize)
	tb.dev.NAND().Store().ReadBytes(0, got)
	for i := 0; i < 2048; i++ {
		if got[i] != 0 {
			t.Fatalf("byte %d not zeroed", i)
		}
	}
	for i := 2048; i < PageSize; i++ {
		if got[i] != 0xAB {
			t.Fatalf("byte %d clobbered beyond the zeroed range", i)
		}
	}
}

func TestProtocolDatasetManagementTrim(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	// Write two sectors far apart, trim both with one DSM command.
	buf := tb.host.Alloc(PageSize, PageSize)
	tb.host.Mem.Store().WriteBytes(buf-tb.host.Mem.Base, []byte{1, 2, 3, 4})
	for _, lba := range []uint64{100, 5000} {
		w := Command{Opcode: OpWrite, CID: uint16(32 + lba%10), NSID: 1, PRP1: buf}
		w.SetSLBA(lba)
		w.SetNLB(0)
		if c := tb.io(w); c.Status != StatusSuccess {
			t.Fatalf("write: %#x", c.Status)
		}
	}
	ranges := MarshalDSMRanges([]DSMRange{{SLBA: 100, NLB: 1}, {SLBA: 5000, NLB: 1}})
	dsmBuf := tb.host.Alloc(PageSize, PageSize)
	tb.host.Mem.Store().WriteBytes(dsmBuf-tb.host.Mem.Base, ranges)
	dsm := Command{Opcode: OpDatasetMgmt, CID: 34, NSID: 1, PRP1: dsmBuf,
		CDW10: 1 /* 2 ranges, 0-based */, CDW11: 1 << 2 /* AD */}
	if c := tb.io(dsm); c.Status != StatusSuccess {
		t.Fatalf("dsm: %#x", c.Status)
	}
	if tb.dev.DeallocatedBytes() != 2*512 {
		t.Fatalf("deallocated = %d, want 1024", tb.dev.DeallocatedBytes())
	}
	got := make([]byte, 4)
	tb.dev.NAND().Store().ReadBytes(100*512, got)
	for _, b := range got {
		if b != 0 {
			t.Fatal("trimmed LBA not zeroed")
		}
	}
}

func TestProtocolDSMOutOfRange(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	ranges := MarshalDSMRanges([]DSMRange{{SLBA: 1 << 60, NLB: 1}})
	dsmBuf := tb.host.Alloc(PageSize, PageSize)
	tb.host.Mem.Store().WriteBytes(dsmBuf-tb.host.Mem.Base, ranges)
	dsm := Command{Opcode: OpDatasetMgmt, CID: 35, NSID: 1, PRP1: dsmBuf,
		CDW10: 0, CDW11: 1 << 2}
	if c := tb.io(dsm); c.Status != StatusLBAOutOfRange {
		t.Fatalf("dsm status %#x, want LBA out of range", c.Status)
	}
}

func TestProtocolDSMHintIgnored(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	dsm := Command{Opcode: OpDatasetMgmt, CID: 36, NSID: 1, CDW10: 0, CDW11: 0}
	if c := tb.io(dsm); c.Status != StatusSuccess {
		t.Fatalf("hint-only dsm status %#x", c.Status)
	}
	if tb.dev.DeallocatedBytes() != 0 {
		t.Fatal("hint-only DSM deallocated data")
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
