package bench

import (
	"testing"

	"snacc/internal/fault"
	"snacc/internal/nvme"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// TestFaultSweepBaselineRow pins the zero-rate row: with no rule registered
// nothing fires, nothing retries, and the sweep degenerates to an ordinary
// sequential-read measurement.
func TestFaultSweepBaselineRow(t *testing.T) {
	tb := FaultSweep([]float64{0}, 8*sim.MiB)
	for _, c := range []string{"inject", "errs", "retry", "tmo", "abort"} {
		if v := value(t, tb, "0.00%", c); v != 0 {
			t.Errorf("zero-rate row has recovery activity: %s = %v", c, v)
		}
	}
	if amp := value(t, tb, "0.00%", "amp"); amp != 1 {
		t.Errorf("zero-rate amplification = %.3f, want exactly 1", amp)
	}
	if g := value(t, tb, "0.00%", "goodput GB/s"); g <= 0 {
		t.Errorf("zero-rate goodput = %.3f GB/s, want > 0", g)
	}
}

// TestStatusFaultAccountingInvariant is the issue's acceptance criterion: at
// a 1% injected read-error rate, every injected fault must be visible in the
// streamer's books — injected == error CQEs observed == retried + aborted.
// Nothing is silently swallowed.
func TestStatusFaultAccountingInvariant(t *testing.T) {
	const total = sim.GiB // 1024 commands: ~10 injections expected at 1%
	rig := buildSNAcc(streamer.URAM, (*streamer.Config).ArmRetry, nil)
	in := fault.NewInjector(faultSweepSeed)
	in.Add(fault.Rule{Name: "read-errors", Kind: fault.StatusError,
		Opcode: nvme.OpRead, Probability: 0.01,
		Status: nvme.StatusDataTransferError})
	in.Attach(rig.dev)
	res := faultSeqRead(rig, 0, total)

	st := rig.st
	if in.Injected() == 0 {
		t.Fatal("1% rate over the seeded workload injected nothing; grow the transfer")
	}
	if st.CommandErrors() != in.Injected() {
		t.Errorf("error CQEs observed = %d, injected = %d; errors were swallowed",
			st.CommandErrors(), in.Injected())
	}
	if got := st.CommandRetries() + st.CommandAborts(); got != in.Injected() {
		t.Errorf("retried+aborted = %d+%d = %d, want every injected fault (%d) dispositioned",
			st.CommandRetries(), st.CommandAborts(), got, in.Injected())
	}
	if st.CommandTimeouts() != 0 || st.ProtocolErrors() != 0 {
		t.Errorf("status faults produced timeouts=%d protocolErrors=%d, want 0/0",
			st.CommandTimeouts(), st.ProtocolErrors())
	}
	if res.Bytes > total {
		t.Errorf("delivered %d bytes of a %d-byte read", res.Bytes, total)
	}
	if (st.CommandAborts() == 0) != (res.Bytes == total) {
		t.Errorf("aborts=%d but delivered %d/%d bytes; aborted pieces must (only) account for the shortfall",
			st.CommandAborts(), res.Bytes, total)
	}
}

// TestDropFaultAccountingInvariant covers the lost-completion leg: every
// dropped CQE must surface as exactly one watchdog timeout, and every timeout
// must be dispositioned as a retry or an abort.
func TestDropFaultAccountingInvariant(t *testing.T) {
	const total = 64 * sim.MiB
	rig := buildSNAcc(streamer.URAM, (*streamer.Config).ArmRetry, nil)
	in := fault.NewInjector(faultSweepSeed)
	in.Add(fault.Rule{Name: "drop-16th", Kind: fault.DropCQE,
		Opcode: nvme.OpRead, Nth: 16})
	in.Attach(rig.dev)
	res := faultSeqRead(rig, 0, total)

	st := rig.st
	if in.Injected() == 0 {
		t.Fatal("Nth:16 drop rule fired nothing over a 64-command read")
	}
	if st.CommandTimeouts() != in.Injected() {
		t.Errorf("timeouts = %d, dropped CQEs = %d; a lost completion went unnoticed",
			st.CommandTimeouts(), in.Injected())
	}
	if got := st.CommandRetries() + st.CommandAborts(); got != st.CommandTimeouts() {
		t.Errorf("retried+aborted = %d, want every timeout (%d) dispositioned",
			got, st.CommandTimeouts())
	}
	if st.CommandErrors() != 0 {
		t.Errorf("drops produced %d error CQEs, want 0", st.CommandErrors())
	}
	if st.CommandAborts() == 0 && res.Bytes != total {
		t.Errorf("no aborts yet delivered only %d/%d bytes", res.Bytes, total)
	}
}
