package snacc

import (
	"bytes"
	"fmt"
	"testing"

	"snacc/internal/sim"
)

// TestRandomizedDataIntegrityCrashRecovery is the crash-and-recover variant
// of TestRandomizedDataIntegrity: the controller crashes at every Nth
// executed command mid-stream, the recovery ladder resets it and replays
// the in-flight window, and every read must still match the byte-exact
// shadow across all three buffer variants. Each variant also runs with the
// submission path sharded over four coalescing queue pairs, where the
// replay must reconstruct every queue's ring in global submission order and
// the Nth-command crash rule keeps counting across queues.
func TestRandomizedDataIntegrityCrashRecovery(t *testing.T) {
	for _, v := range []Variant{URAM, OnboardDRAM, HostDRAM} {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			runCrashIntegrity(t, Options{Variant: v})
		})
		t.Run(v.String()+"-4q", func(t *testing.T) {
			runCrashIntegrity(t, Options{Variant: v, IOQueues: 4, DoorbellBatch: 8})
		})
	}
}

func runCrashIntegrity(t *testing.T, opts Options) {
	fn := true
	opts.Functional = &fn
	opts.Faults = &FaultOptions{CrashEveryNCmds: 19}
	sys := MustNewSystem(opts)
	const span = 4 << 20
	shadow := make([]byte, span)
	rng := sim.NewRand(uint64(opts.Variant) + 303)
	var failure string
	sys.Execute(func(h *Handle) {
		for op := 0; op < 120; op++ {
			n := (rng.Int63n(96) + 1) * 512
			addr := uint64(rng.Int63n((span-n)/512)) * 512
			if rng.Float64() < 0.55 {
				data := make([]byte, n)
				for i := range data {
					data[i] = byte(rng.Int63n(256))
				}
				if err := h.WriteErr(addr, data); err != nil {
					failure = fmt.Sprintf("op %d: write %d@%#x: %v", op, n, addr, err)
					return
				}
				copy(shadow[addr:], data)
			} else {
				got, err := h.ReadErr(addr, n)
				want := shadow[addr : addr+uint64(n)]
				if err != nil || !bytes.Equal(got, want) {
					failure = fmt.Sprintf("op %d: read %d@%#x diverged from shadow (err %v, first diff at %d)",
						op, n, addr, err, firstDiff(got, want))
					return
				}
			}
		}
		got, err := h.ReadErr(0, span)
		if err != nil || !bytes.Equal(got, shadow) {
			failure = fmt.Sprintf("final readback diverged at byte %d (err %v)", firstDiff(got, shadow), err)
		}
	})
	if failure != "" {
		t.Fatal(failure)
	}
	st := sys.Stats()
	if st.ControllerResets == 0 || st.BreakerTrips == 0 {
		t.Fatalf("trips/resets = %d/%d; the workload crashed no controller, test is vacuous",
			st.BreakerTrips, st.ControllerResets)
	}
	if st.CommandsReplayed == 0 {
		t.Error("no commands replayed across the injected crashes")
	}
	if st.ControllerDead {
		t.Error("controller declared dead despite a working reset path")
	}
	if st.CommandAborts != 0 {
		t.Errorf("aborts = %d across recovered crashes, want 0", st.CommandAborts)
	}
}

// TestCrashRecoveryStatsReported pins the new Stats plumbing end to end:
// one injected crash must show up as a trip, a reset, a replayed window and
// a non-zero time-to-recover.
func TestCrashRecoveryStatsReported(t *testing.T) {
	sys := MustNewSystem(Options{Faults: &FaultOptions{CrashEveryNCmds: 8}})
	sys.Execute(func(h *Handle) {
		h.WriteTimed(0, 16*1<<20)
	})
	st := sys.Stats()
	if st.BreakerTrips == 0 || st.ControllerResets == 0 {
		t.Fatalf("trips/resets = %d/%d, want both > 0", st.BreakerTrips, st.ControllerResets)
	}
	if st.CommandsReplayed == 0 {
		t.Error("CommandsReplayed = 0 across a mid-burst crash")
	}
	if st.RecoveryTimeNs <= 0 {
		t.Error("RecoveryTimeNs not accounted")
	}
	if st.ControllerDead {
		t.Error("controller marked dead after successful recovery")
	}
	if st.FaultsInjected == 0 {
		t.Error("injector reported no firings")
	}
}

// TestServeCrashRecoveryMultiQueue: a controller reset drops the CQEs of
// commands that completed but had not yet retired along with the old
// completion queues, so retiring them must not advance the rebuilt queues'
// heads. With four queue pairs a single such completion on a queue left
// that queue looking full to the controller: its next completion stalled
// until the watchdog resubmitted a CID the controller still held.
func TestServeCrashRecoveryMultiQueue(t *testing.T) {
	so := serveOpts()
	so.Requests = 200
	so.SpanBytes = 16 * sim.MiB
	sys := MustNewSystem(Options{Seed: 94, Serve: so, IOQueues: 4,
		Faults: &FaultOptions{CrashEveryNCmds: 7}})
	sys.Execute(func(h *Handle) {
		for i := uint64(0); i < 6; i++ {
			check(t, h.WriteErr(i*8192, make([]byte, 8192)))
			mustRead(t, h, i*8192, 8192)
		}
	})
	rep, err := sys.Serve()
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if rep.Completed != 200 || rep.Failed != 0 || st.ControllerResets == 0 || st.CommandTimeouts != 0 {
		t.Errorf("completed %d, failed %d, resets %d, timeouts %d; want 200 completed across resets without a timeout",
			rep.Completed, rep.Failed, st.ControllerResets, st.CommandTimeouts)
	}
}

// TestCrashEveryCommandRejected: N=1 can never make forward progress, so
// the constructor must refuse it rather than hand back a livelocking
// system.
func TestCrashEveryCommandRejected(t *testing.T) {
	if _, err := NewSystem(Options{Faults: &FaultOptions{CrashEveryNCmds: 1}}); err == nil {
		t.Fatal("CrashEveryNCmds = 1 accepted")
	}
}

// TestSurpriseRemovalTerminal: a removed controller exhausts its resets and
// surfaces as a terminal error flag plus ControllerDead — never a hang.
func TestSurpriseRemovalTerminal(t *testing.T) {
	sys := MustNewSystem(Options{Faults: &FaultOptions{RemoveAtCommand: 4}})
	sawErr := false
	sys.Execute(func(h *Handle) {
		if err := h.WriteErr(0, make([]byte, 8<<20)); err != nil {
			sawErr = true
		}
	})
	if !sawErr {
		t.Error("write across a surprise removal reported no error")
	}
	st := sys.Stats()
	if !st.ControllerDead {
		t.Error("removed controller not reported dead")
	}
	if st.ControllerResets == 0 {
		t.Error("no reset attempts against the removed controller")
	}
}
