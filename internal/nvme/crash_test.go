package nvme

import (
	"encoding/binary"
	"testing"

	"snacc/internal/pcie"
	"snacc/internal/sim"
)

// Controller-failure-model tests: every modeled fault path must surface as
// host-visible status (CSTS.CFS, all-1s reads, missing completions) and
// never as a panic out of sim.Kernel.Run.

// csts reads the controller status register.
func (tb *testbench) csts() uint32 {
	buf := make([]byte, 4)
	tb.host.Port.Read(tb.bar+RegCSTS, 4, pcie.Bytes(buf), nil)
	tb.k.Run(0)
	return binary.LittleEndian.Uint32(buf)
}

// ioNoWait submits one I/O SQE and returns how many completions arrived —
// unlike io it tolerates a dead controller posting nothing.
func (tb *testbench) ioNoWait(cmd Command) int {
	tb.host.Mem.Store().WriteBytes(tb.ioSQ-tb.host.Mem.Base+uint64(tb.ioTail*SQESize), cmd.Marshal())
	tb.ioTail = (tb.ioTail + 1) % tbDepth
	before := len(tb.completions)
	tb.host.Port.Write(tb.bar+RegDoorbellBase+8, 4, pcie.Bytes(binary.LittleEndian.AppendUint32(nil, uint32(tb.ioTail))), nil)
	tb.k.Run(0)
	return len(tb.completions) - before
}

// rebuild re-runs bring-up after a controller reset.
func (tb *testbench) rebuild() {
	tb.aTail, tb.aHead, tb.aPhase = 0, 0, true
	tb.ioTail, tb.ioHead, tb.ioPhase = 0, 0, true
	tb.enable()
	tb.createIOQueues()
}

func TestCrashUnmodeledRegisterWriteLatchesCFS(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.host.Port.Write(tb.bar+0xF0, 4, pcie.Bytes(binary.LittleEndian.AppendUint32(nil, 0xDEAD)), nil)
	tb.k.Run(0)
	if tb.csts()&CSTSFatal == 0 {
		t.Fatal("unmodeled register write did not latch CSTS.CFS")
	}
	if tb.dev.Mode() != ModeCrashed {
		t.Fatalf("mode = %d, want crashed", tb.dev.Mode())
	}
	// A controller reset clears the fatal status and revives the device.
	tb.host.Port.Write(tb.bar+RegCC, 4, pcie.Bytes(binary.LittleEndian.AppendUint32(nil, 0)), nil)
	tb.k.Run(0)
	if tb.csts()&CSTSFatal != 0 {
		t.Fatal("CSTS.CFS survived a controller reset")
	}
	tb.rebuild()
	cmd := Command{Opcode: OpRead, CID: 50, NSID: 1, PRP1: tb.host.Alloc(PageSize, PageSize)}
	cmd.SetNLB(7)
	if c := tb.io(cmd); c.Status != StatusSuccess {
		t.Fatalf("I/O after reset: %#x", c.Status)
	}
}

func TestCrashUnmodeledRegisterReadLatchesCFS(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	buf := []byte{0xAA, 0xAA, 0xAA, 0xAA}
	tb.host.Port.Read(tb.bar+0xF0, 4, pcie.Bytes(buf), nil)
	tb.k.Run(0)
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("unmodeled register read byte %d = %#x, want 0", i, b)
		}
	}
	if tb.csts()&CSTSFatal == 0 {
		t.Fatal("unmodeled register read did not latch CSTS.CFS")
	}
}

func TestCrashUnknownQueueDoorbellLatchesCFS(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	// SQ tail doorbell for queue 5, which was never created.
	tb.host.Port.Write(tb.bar+RegDoorbellBase+uint64(2*5*4), 4, pcie.Bytes(binary.LittleEndian.AppendUint32(nil, 1)), nil)
	tb.k.Run(0)
	if tb.csts()&CSTSFatal == 0 {
		t.Fatal("unknown-queue doorbell did not latch CSTS.CFS")
	}
}

// TestCrashDoorbellPastQueueTableLatchesCFS rings doorbells the queue table
// has no entry for: qids past MaxIOQueuePairs (up to the last doorbell the
// BAR holds) and a queue pair that was created and then deleted. Each is a
// host protocol violation that must latch CSTS.CFS, never panic.
func TestCrashDoorbellPastQueueTableLatchesCFS(t *testing.T) {
	const maxPairs = 2
	lastDoorbell := uint64(BARSize-4-RegDoorbellBase) / 4
	cases := []struct {
		name    string
		deleted bool   // create and delete the qid-1 pair first
		idx     uint64 // doorbell index: 2*qid for the SQ tail, 2*qid+1 for the CQ head
	}{
		{name: "sq-past-max", idx: 2 * (maxPairs + 1)},
		{name: "cq-past-max", idx: 2*(maxPairs+1) + 1},
		{name: "last-doorbell-in-bar", idx: lastDoorbell},
		{name: "sq-deleted", deleted: true, idx: 2},
		{name: "cq-deleted", deleted: true, idx: 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tb := newTestbench(t, func(cfg *Config) { cfg.MaxIOQueuePairs = maxPairs })
			tb.enable()
			if c.deleted {
				tb.createIOQueues()
				if cqe := tb.admin(Command{Opcode: OpDeleteIOSQ, CID: 8, CDW10: 1}); cqe.Status != StatusSuccess {
					t.Fatalf("delete SQ: %#x", cqe.Status)
				}
			}
			tb.host.Port.Write(tb.bar+RegDoorbellBase+4*c.idx, 4, pcie.Bytes(binary.LittleEndian.AppendUint32(nil, 1)), nil)
			tb.k.Run(0)
			if tb.csts()&CSTSFatal == 0 {
				t.Fatalf("doorbell %d did not latch CSTS.CFS", c.idx)
			}
			if tb.dev.Mode() != ModeCrashed {
				t.Fatalf("mode = %d, want crashed", tb.dev.Mode())
			}
		})
	}
}

func TestCrashDoorbellOutOfRangeLatchesCFS(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.host.Port.Write(tb.bar+RegDoorbellBase, 4, pcie.Bytes(binary.LittleEndian.AppendUint32(nil, uint32(tbDepth+5))), nil)
	tb.k.Run(0)
	if tb.csts()&CSTSFatal == 0 {
		t.Fatal("out-of-range doorbell did not latch CSTS.CFS")
	}
}

func TestCrashInjectedAtCommandStopsCompletions(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	tb.dev.SetCtrlFaultInjector(func(cmd Command) CtrlFault {
		return CtrlFault{Crash: true}
	})
	cmd := Command{Opcode: OpRead, CID: 60, NSID: 1, PRP1: tb.host.Alloc(PageSize, PageSize)}
	cmd.SetNLB(7)
	if n := tb.ioNoWait(cmd); n != 0 {
		t.Fatalf("crashed controller posted %d completions", n)
	}
	if tb.csts()&CSTSFatal == 0 {
		t.Fatal("injected crash did not latch CSTS.CFS")
	}
	if tb.dev.ControllerCrashes() != 1 {
		t.Fatalf("crashes = %d, want 1", tb.dev.ControllerCrashes())
	}
	// Recover: reset, rebuild, clear the injector, run a command.
	tb.dev.SetCtrlFaultInjector(nil)
	tb.host.Port.Write(tb.bar+RegCC, 4, pcie.Bytes(binary.LittleEndian.AppendUint32(nil, 0)), nil)
	tb.k.Run(0)
	tb.rebuild()
	cmd.CID = 61
	if c := tb.io(cmd); c.Status != StatusSuccess {
		t.Fatalf("I/O after crash recovery: %#x", c.Status)
	}
	if tb.dev.CQEsLost() == 0 {
		t.Fatal("the crashed command's completion was not counted as lost")
	}
}

func TestCrashHangParksThenRevives(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	fired := false
	tb.dev.SetCtrlFaultInjector(func(cmd Command) CtrlFault {
		if fired {
			return CtrlFault{}
		}
		fired = true
		return CtrlFault{Hang: 2 * sim.Millisecond}
	})
	start := tb.k.Now()
	cmd := Command{Opcode: OpRead, CID: 70, NSID: 1, PRP1: tb.host.Alloc(PageSize, PageSize)}
	cmd.SetNLB(7)
	c := tb.io(cmd) // k.Run drains through the revive timer
	if c.Status != StatusSuccess {
		t.Fatalf("post-revive status %#x", c.Status)
	}
	if el := tb.k.Now() - start; el < 2*sim.Millisecond {
		t.Fatalf("completion after %v, inside the 2 ms hang window", el)
	}
	if tb.dev.ControllerHangs() != 1 {
		t.Fatalf("hangs = %d, want 1", tb.dev.ControllerHangs())
	}
	if tb.dev.Mode() != ModeHealthy {
		t.Fatalf("mode = %d after revive, want healthy", tb.dev.Mode())
	}
}

func TestCrashSurpriseRemovalFloatsAllOnes(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	tb.dev.Remove()
	if v := tb.csts(); v != ^uint32(0) {
		t.Fatalf("CSTS after removal = %#x, want all-1s", v)
	}
	cmd := Command{Opcode: OpRead, CID: 80, NSID: 1, PRP1: tb.host.Alloc(PageSize, PageSize)}
	cmd.SetNLB(7)
	if n := tb.ioNoWait(cmd); n != 0 {
		t.Fatalf("removed controller posted %d completions", n)
	}
	// No reset can bring it back.
	tb.host.Port.Write(tb.bar+RegCC, 4, pcie.Bytes(binary.LittleEndian.AppendUint32(nil, 0)), nil)
	tb.host.Port.Write(tb.bar+RegCC, 4, pcie.Bytes(binary.LittleEndian.AppendUint32(nil, CCEnable)), nil)
	tb.k.Run(0)
	if v := tb.csts(); v != ^uint32(0) {
		t.Fatalf("removed controller answered a reset: CSTS = %#x", v)
	}
}

func TestCrashShutdownHandshake(t *testing.T) {
	tb := newTestbench(t, nil)
	tb.enable()
	tb.createIOQueues()
	// CC.SHN = normal shutdown; keep EN set per spec.
	tb.host.Port.Write(tb.bar+RegCC, 4, pcie.Bytes(binary.LittleEndian.AppendUint32(nil, CCEnable|CCShutdownNormal)), nil)
	// Poll without draining the event queue: processing must be visible
	// before the ShutdownDelay elapses.
	var seen uint32
	tb.k.Spawn("poll", func(p *sim.Proc) {
		p.Sleep(sim.Microsecond)
		buf := make([]byte, 4)
		tb.host.Port.ReadB(p, tb.bar+RegCSTS, 4, buf)
		seen = binary.LittleEndian.Uint32(buf)
	})
	tb.k.Run(0)
	if seen&CSTSShutdownMask != CSTSShutdownProcessing {
		t.Fatalf("CSTS.SHST during shutdown = %#x, want processing", seen&CSTSShutdownMask)
	}
	if tb.csts()&CSTSShutdownMask != CSTSShutdownComplete {
		t.Fatal("shutdown never reported complete")
	}
	// A shut-down controller fetches nothing.
	cmd := Command{Opcode: OpRead, CID: 90, NSID: 1, PRP1: tb.host.Alloc(PageSize, PageSize)}
	cmd.SetNLB(7)
	if n := tb.ioNoWait(cmd); n != 0 {
		t.Fatalf("shut-down controller posted %d completions", n)
	}
	// Reset + rebuild restarts it.
	tb.host.Port.Write(tb.bar+RegCC, 4, pcie.Bytes(binary.LittleEndian.AppendUint32(nil, 0)), nil)
	tb.k.Run(0)
	tb.rebuild()
	cmd.CID = 91
	if c := tb.io(cmd); c.Status != StatusSuccess {
		t.Fatalf("I/O after shutdown+reset: %#x", c.Status)
	}
}

// TestCrashNoModeledFaultPanics drives every host-reachable abuse path in
// one run: nothing may escape sim.Kernel.Run as a panic.
func TestCrashNoModeledFaultPanics(t *testing.T) {
	abuses := []func(tb *testbench){
		func(tb *testbench) {
			tb.host.Port.Write(tb.bar+0x48, 4, pcie.Bytes(binary.LittleEndian.AppendUint32(nil, 1)), nil)
		},
		func(tb *testbench) { tb.host.Port.Read(tb.bar+0x48, 4, pcie.Bytes(make([]byte, 4)), nil) },
		func(tb *testbench) {
			tb.host.Port.Write(tb.bar+RegDoorbellBase+uint64(2*7*4), 4, pcie.Bytes(binary.LittleEndian.AppendUint32(nil, 1)), nil)
		},
		func(tb *testbench) {
			tb.host.Port.Write(tb.bar+RegDoorbellBase+4, 4, pcie.Bytes(binary.LittleEndian.AppendUint32(nil, 1<<20)), nil)
		},
		func(tb *testbench) { tb.dev.Crash() },
		func(tb *testbench) { tb.dev.Remove() },
		func(tb *testbench) { tb.dev.Hang(sim.Millisecond) },
	}
	for i, abuse := range abuses {
		tb := newTestbench(t, nil)
		tb.enable()
		tb.createIOQueues()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("abuse %d panicked out of Kernel.Run: %v", i, r)
				}
			}()
			abuse(tb)
			cmd := Command{Opcode: OpRead, CID: uint16(100 + i), NSID: 1,
				PRP1: tb.host.Alloc(PageSize, PageSize)}
			cmd.SetNLB(7)
			tb.ioNoWait(cmd)
		}()
	}
}
