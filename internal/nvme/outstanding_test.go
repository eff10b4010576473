package nvme

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"snacc/internal/pcie"
)

// panicOf runs fn and returns what it panicked with, formatted, or "".
func panicOf(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// TestDuplicateCIDConflict pins the fetch-side CID check: a host that
// submits a CID still outstanding on the same queue gets Command ID Conflict
// (generic status 0x03) for the second entry, as a real controller reports
// it, while the original command completes normally and the simulation
// keeps running. Afterwards the CID is free again.
func TestDuplicateCIDConflict(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	buf := tb.host.Alloc(PageSize, PageSize)
	read := Command{Opcode: OpRead, CID: 9, NSID: 1, PRP1: buf}
	read.SetNLB(7)
	for i := 0; i < 2; i++ {
		tb.host.Mem.Store().WriteBytes(tb.ioSQ-tb.host.Mem.Base+uint64(tb.ioTail*SQESize), read.Marshal())
		tb.ioTail++
	}
	tb.host.Port.Write(tb.bar+RegDoorbellBase+8, 4, pcie.Bytes(binary.LittleEndian.AppendUint32(nil, uint32(tb.ioTail))), nil)
	if msg := panicOf(func() { tb.k.Run(0) }); msg != "" {
		t.Fatalf("a duplicate CID panicked: %s", msg)
	}
	if len(tb.completions) != 4 { // two admin, then the pair
		t.Fatalf("%d completions, want the original's and the duplicate's", len(tb.completions)-2)
	}
	statuses := map[uint16]int{}
	for _, c := range tb.completions[2:] {
		if c.CID != 9 {
			t.Fatalf("completion for CID %d, want 9", c.CID)
		}
		statuses[c.Status]++
	}
	if statuses[StatusSuccess] != 1 || statuses[StatusCommandIDConflict] != 1 {
		t.Fatalf("statuses %v, want one success and one Command ID Conflict (0x03)", statuses)
	}
	if tb.dev.CommandsExecuted() != 4 || tb.dev.Errors() != 1 {
		t.Fatalf("executed %d with %d errors, want 4 and 1", tb.dev.CommandsExecuted(), tb.dev.Errors())
	}
	if q := tb.dev.queues[1]; q.outstanding.has(9) {
		t.Fatal("CID 9 still outstanding after both entries completed")
	}
	if c := tb.io(read); c.Status != StatusSuccess || c.CID != 9 {
		t.Fatalf("CID 9 resubmitted after the conflict completed %+v", c)
	}
}

// TestDoubleCompletionPanics pins the completion-side CID check: accounting
// a completion for a CID that is no longer outstanding panics.
func TestDoubleCompletionPanics(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	cmd := Command{Opcode: OpRead, CID: 5, NSID: 1, PRP1: tb.host.Alloc(PageSize, PageSize)}
	if c := tb.io(cmd); c.Status != StatusSuccess {
		t.Fatalf("read status %#x", c.Status)
	}
	again := tb.dev.getCommand(tb.dev.queues[1], cmd)
	msg := panicOf(func() { tb.dev.account(again) })
	if !strings.Contains(msg, "nvme: double completion of CID 5 on q1") {
		t.Fatalf("account panicked with %q, want a double completion of CID 5 on q1", msg)
	}
}

// TestDiscardFreesCID pins that a command whose completion is discarded (the
// controller crashed while it executed) no longer counts as outstanding on
// its queue, and that a fresh submission of its CID completes after the
// reset.
func TestDiscardFreesCID(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	q := tb.dev.queues[1]
	tb.dev.SetCtrlFaultInjector(func(c Command) CtrlFault { return CtrlFault{Crash: c.CID == 7} })
	buf := tb.host.Alloc(PageSize, PageSize)
	if n := tb.ioNoWait(Command{Opcode: OpRead, CID: 7, NSID: 1, PRP1: buf}); n != 0 {
		t.Fatalf("crashed command posted %d completions, want 0", n)
	}
	if tb.dev.CQEsLost() != 1 {
		t.Fatalf("CQEsLost = %d, want the crashed command discarded", tb.dev.CQEsLost())
	}
	if q.outstanding.has(7) {
		t.Fatal("the discarded command's CID is still outstanding")
	}
	for i, w := range q.outstanding {
		if w != 0 {
			t.Fatalf("outstanding word %d = %#x after the only command was discarded", i, w)
		}
	}
	tb.dev.SetCtrlFaultInjector(nil)
	tb.host.Port.Write(tb.bar+RegCC, 4, pcie.Bytes(binary.LittleEndian.AppendUint32(nil, 0)), nil)
	tb.k.Run(0)
	tb.rebuild()
	if c := tb.io(Command{Opcode: OpRead, CID: 7, NSID: 1, PRP1: buf}); c.Status != StatusSuccess || c.CID != 7 {
		t.Fatalf("resubmitted CID 7 completed %+v", c)
	}
}
