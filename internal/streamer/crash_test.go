package streamer_test

import (
	"bytes"
	"errors"
	"testing"

	"snacc/internal/fault"
	"snacc/internal/nvme"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// crashRecovery layers the controller-failure circuit breaker on top of the
// per-command recovery settings. The 1 ms status poll is the fast-detect
// path; CmdTimeout stays at 20 ms so a full queue-depth burst of 1 MiB
// pieces cannot false-trip the watchdog.
func crashRecovery(cfg *streamer.Config) {
	recovery(cfg)
	cfg.BreakerThreshold = 2
	cfg.MaxResets = 2
	cfg.CFSPollInterval = sim.Millisecond
}

// TestBreakerBoundsRetryStorm pins the PR2 retry-storm fix: against a
// permanently dead controller, the breaker must trip after BreakerThreshold
// consecutive timeouts and stand the per-command watchdogs down, so total
// resubmissions stay bounded instead of every in-flight command burning
// MaxRetries each. Detection goes through the timeout path on purpose
// (status polling off): that is exactly where the storm used to live.
func TestBreakerBoundsRetryStorm(t *testing.T) {
	k, c, dev := rig(t, streamer.URAM, false, func(cfg *streamer.Config) {
		crashRecovery(cfg)
		cfg.CFSPollInterval = 0
	})
	inj := fault.NewInjector(7)
	inj.Add(fault.Rule{Name: "remove-8th", Kind: fault.RemoveCtrl, Opcode: fault.OpAny,
		Nth: 8, Count: 1})
	inj.Attach(dev)
	done := false
	k.Spawn("pe", func(p *sim.Proc) {
		err := c.WriteErr(p, 0, 16*sim.MiB, nil)
		var ce streamer.CmdError
		if !errors.As(err, &ce) {
			t.Fatalf("write error = %v, want CmdError", err)
		}
		if ce.Status != nvme.StatusControllerUnavailable {
			t.Errorf("write status = %#x, want %#x", ce.Status, nvme.StatusControllerUnavailable)
		}
		// The dead controller fails further traffic fast, not by hanging.
		if _, err := c.ReadErr(p, 0, sim.MiB); err == nil {
			t.Error("read against a dead controller succeeded")
		}
		done = true
	})
	k.Run(0)
	if !done {
		t.Fatal("PE never finished against a dead controller")
	}
	st := c.Streamer()
	if !st.Dead() {
		t.Error("controller not declared dead")
	}
	if st.BreakerTrips() != 1 {
		t.Errorf("breaker trips = %d, want 1", st.BreakerTrips())
	}
	if st.ControllerResets() != 2 {
		t.Errorf("controller resets = %d, want MaxResets = 2", st.ControllerResets())
	}
	// Without the breaker every stranded in-flight command retried
	// MaxRetries times (~27 resubmissions for a 9-deep window); the breaker
	// allows at most the pre-trip stragglers.
	if st.CommandRetries() > 3 {
		t.Errorf("retry storm: %d resubmissions against a dead controller", st.CommandRetries())
	}
	if st.CommandTimeouts() > int64(st.Config().BreakerThreshold)+1 {
		t.Errorf("timeouts = %d, want ~BreakerThreshold", st.CommandTimeouts())
	}
}

// TestCrashBreakerRecoversAndReplays is the end-to-end ladder: a controller
// crash mid-burst is detected, the controller is reset, the in-flight
// window replays from the retained staging buffers, and the PE sees intact
// data with no error.
func TestCrashBreakerRecoversAndReplays(t *testing.T) {
	k, c, dev := rig(t, streamer.URAM, true, crashRecovery)
	inj := fault.NewInjector(7)
	inj.Add(fault.Rule{Name: "crash-8th", Kind: fault.CrashCtrl, Opcode: fault.OpAny,
		Nth: 8, Count: 1})
	inj.Attach(dev)
	want := make([]byte, 16*sim.MiB)
	for i := range want {
		want[i] = byte(i*17 + 5)
	}
	done := false
	k.Spawn("pe", func(p *sim.Proc) {
		if err := c.WriteErr(p, 0, int64(len(want)), want); err != nil {
			t.Fatalf("write across crash failed: %v", err)
		}
		got, err := c.ReadErr(p, 0, int64(len(want)))
		if err != nil {
			t.Fatalf("read after recovery failed: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Error("data corrupted across controller crash recovery")
		}
		done = true
	})
	k.Run(0)
	if !done {
		t.Fatal("PE never finished")
	}
	st := c.Streamer()
	if dev.ControllerCrashes() != 1 {
		t.Errorf("device crashes = %d, want 1", dev.ControllerCrashes())
	}
	if st.BreakerTrips() != 1 || st.ControllerResets() != 1 {
		t.Errorf("trips/resets = %d/%d, want 1/1", st.BreakerTrips(), st.ControllerResets())
	}
	if st.CommandsReplayed() == 0 {
		t.Error("no commands replayed despite in-flight window at crash")
	}
	if st.RecoveryTime() <= 0 {
		t.Error("recovery time not accounted")
	}
	if st.Dead() {
		t.Error("recovered controller marked dead")
	}
	if st.CommandAborts() != 0 {
		t.Errorf("aborts = %d after successful recovery, want 0", st.CommandAborts())
	}
}

// TestReplayWhileRetirementBlocked pins that a retirement blocked across a
// controller reset does not acknowledge its pre-crash completion on the
// rebuilt completion queue. The PE stalls, so the send stage and then the
// retire FSM block holding completed reads; the controller crashes, and the
// breaker resets it and replays the unfinished commands. When the PE drains,
// the retirements resume: a stale CQ-head update would leave the device
// seeing a full queue, and the next reads would stall into watchdog
// timeouts and a second breaker trip.
func TestReplayWhileRetirementBlocked(t *testing.T) {
	k, c, dev := rig(t, streamer.URAM, false, func(cfg *streamer.Config) {
		crashRecovery(cfg)
		cfg.StreamCfg.DepthBytes = 8 * sim.KiB // two 4 KiB reads fill ReadData
	})
	inj := fault.NewInjector(7)
	inj.Add(fault.Rule{Name: "crash-40th", Kind: fault.CrashCtrl, Opcode: fault.OpAny,
		Nth: 40, Count: 1})
	inj.Attach(dev)
	done := false
	k.Spawn("pe", func(p *sim.Proc) {
		for round := 0; round < 2; round++ {
			for i := 0; i < 48; i++ {
				c.ReadAsync(p, uint64(i)*4096, 4096)
			}
			if round == 0 {
				p.Sleep(10 * sim.Millisecond)
			}
			for i := 0; i < 48; i++ {
				if _, err := c.DrainRead(p); err != nil {
					t.Fatalf("round %d read %d: %v", round, i, err)
				}
			}
		}
		done = true
	})
	k.Run(0)
	if !done {
		t.Fatal("PE never finished")
	}
	st := c.Streamer()
	if st.BreakerTrips() != 1 || st.CommandsReplayed() == 0 {
		t.Errorf("trips = %d, replayed = %d, want one trip that replayed commands", st.BreakerTrips(), st.CommandsReplayed())
	}
	if st.CommandTimeouts() != 0 {
		t.Errorf("%d watchdog timeouts after the recovery", st.CommandTimeouts())
	}
}

// TestCrashBreakerRecoversMultiQueue runs the same end-to-end ladder with
// the submission path sharded over four coalescing queue pairs: the crash
// strands an in-flight window spread across all four SQs with doorbell
// batches partially accumulated, and the replay must reset every queue's
// cursors, re-encode the window in global submission order, and force-ring
// each queue's final tail past the open breaker. The PE must see intact data
// and the ladder counters must match the single-queue run exactly.
func TestCrashBreakerRecoversMultiQueue(t *testing.T) {
	k, c, dev := rig(t, streamer.URAM, true, func(cfg *streamer.Config) {
		crashRecovery(cfg)
		cfg.IOQueues = 4
		cfg.DoorbellBatch = 8
	})
	inj := fault.NewInjector(7)
	inj.Add(fault.Rule{Name: "crash-8th", Kind: fault.CrashCtrl, Opcode: fault.OpAny,
		Nth: 8, Count: 1})
	inj.Attach(dev)
	want := make([]byte, 16*sim.MiB)
	for i := range want {
		want[i] = byte(i*17 + 5)
	}
	done := false
	k.Spawn("pe", func(p *sim.Proc) {
		if err := c.WriteErr(p, 0, int64(len(want)), want); err != nil {
			t.Fatalf("write across crash failed: %v", err)
		}
		got, err := c.ReadErr(p, 0, int64(len(want)))
		if err != nil {
			t.Fatalf("read after recovery failed: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Error("data corrupted across multi-queue crash recovery")
		}
		done = true
	})
	k.Run(0)
	if !done {
		t.Fatal("PE never finished")
	}
	st := c.Streamer()
	if dev.ControllerCrashes() != 1 {
		t.Errorf("device crashes = %d, want 1", dev.ControllerCrashes())
	}
	if st.BreakerTrips() != 1 || st.ControllerResets() != 1 {
		t.Errorf("trips/resets = %d/%d, want 1/1", st.BreakerTrips(), st.ControllerResets())
	}
	if st.CommandsReplayed() == 0 {
		t.Error("no commands replayed despite in-flight window at crash")
	}
	if st.Dead() {
		t.Error("recovered controller marked dead")
	}
	if st.CommandAborts() != 0 {
		t.Errorf("aborts = %d after successful recovery, want 0", st.CommandAborts())
	}
}

// TestCrashHangRevivesWithoutReset: a hang shorter than the command
// deadline parks completions and revives on its own — neither the watchdog
// nor the breaker may fire.
func TestCrashHangRevivesWithoutReset(t *testing.T) {
	k, c, dev := rig(t, streamer.URAM, true, crashRecovery)
	inj := fault.NewInjector(7)
	inj.Add(fault.Rule{Name: "hang-4th", Kind: fault.HangCtrl, Opcode: fault.OpAny,
		Nth: 4, Count: 1, Delay: 2 * sim.Millisecond})
	inj.Attach(dev)
	want := make([]byte, 8*sim.MiB)
	for i := range want {
		want[i] = byte(i * 29)
	}
	done := false
	k.Spawn("pe", func(p *sim.Proc) {
		if err := c.WriteErr(p, 0, int64(len(want)), want); err != nil {
			t.Fatalf("write across hang failed: %v", err)
		}
		got, err := c.ReadErr(p, 0, int64(len(want)))
		if err != nil {
			t.Fatalf("read after revive failed: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Error("data corrupted across controller hang")
		}
		done = true
	})
	k.Run(0)
	if !done {
		t.Fatal("PE never finished")
	}
	st := c.Streamer()
	if dev.ControllerHangs() != 1 {
		t.Errorf("device hangs = %d, want 1", dev.ControllerHangs())
	}
	if st.BreakerTrips() != 0 || st.ControllerResets() != 0 {
		t.Errorf("trips/resets = %d/%d across a self-reviving hang, want 0/0",
			st.BreakerTrips(), st.ControllerResets())
	}
	if st.CommandTimeouts() != 0 {
		t.Errorf("timeouts = %d, want 0 (hang shorter than deadline)", st.CommandTimeouts())
	}
}

// TestPermanentDeathFailsFast: with no reset budget, the first trip
// declares the controller dead and every stranded or future command
// resolves immediately with the terminal status — a flag on the streams,
// never a hang.
func TestPermanentDeathFailsFast(t *testing.T) {
	k, c, dev := rig(t, streamer.URAM, false, func(cfg *streamer.Config) {
		crashRecovery(cfg)
		cfg.MaxResets = 0
	})
	inj := fault.NewInjector(7)
	inj.Add(fault.Rule{Name: "crash-4th", Kind: fault.CrashCtrl, Opcode: fault.OpAny,
		Nth: 4, Count: 1})
	inj.Attach(dev)
	done := false
	k.Spawn("pe", func(p *sim.Proc) {
		err := c.WriteErr(p, 0, 8*sim.MiB, nil)
		var ce streamer.CmdError
		if !errors.As(err, &ce) {
			t.Fatalf("write error = %v, want CmdError", err)
		}
		if ce.Status != nvme.StatusControllerUnavailable {
			t.Errorf("write status = %#x, want %#x", ce.Status, nvme.StatusControllerUnavailable)
		}
		data, err := c.ReadErr(p, 0, sim.MiB)
		if !errors.As(err, &ce) || ce.Status != nvme.StatusControllerUnavailable {
			t.Errorf("read error = %v, want terminal CmdError", err)
		}
		if len(data) != 0 {
			t.Errorf("dead controller delivered %d bytes", len(data))
		}
		done = true
	})
	k.Run(0)
	if !done {
		t.Fatal("PE never finished")
	}
	st := c.Streamer()
	if !st.Dead() {
		t.Error("controller not declared dead")
	}
	if st.ControllerResets() != 0 {
		t.Errorf("resets = %d with MaxResets = 0, want 0", st.ControllerResets())
	}
	if dev.ControllerCrashes() != 1 {
		t.Errorf("device crashes = %d, want 1", dev.ControllerCrashes())
	}
}

// TestCFSPollDetectsCrashFast pins the fast-detect path: with an
// intentionally huge command deadline, the status poll alone must spot the
// latched CSTS.CFS and drive recovery orders of magnitude sooner than the
// watchdog would.
func TestCFSPollDetectsCrashFast(t *testing.T) {
	k, c, dev := rig(t, streamer.URAM, false, func(cfg *streamer.Config) {
		crashRecovery(cfg)
		cfg.CmdTimeout = sim.Second
	})
	inj := fault.NewInjector(7)
	inj.Add(fault.Rule{Name: "crash-4th", Kind: fault.CrashCtrl, Opcode: fault.OpAny,
		Nth: 4, Count: 1})
	inj.Attach(dev)
	var finished sim.Time
	done := false
	k.Spawn("pe", func(p *sim.Proc) {
		if err := c.WriteErr(p, 0, 8*sim.MiB, nil); err != nil {
			t.Fatalf("write across crash failed: %v", err)
		}
		finished = p.Now()
		done = true
	})
	k.Run(0)
	if !done {
		t.Fatal("PE never finished")
	}
	st := c.Streamer()
	if st.ControllerResets() != 1 || st.CommandsReplayed() == 0 {
		t.Errorf("resets/replayed = %d/%d, want 1/>0", st.ControllerResets(), st.CommandsReplayed())
	}
	if st.CommandTimeouts() != 0 {
		t.Errorf("timeouts = %d, want 0 (poll must beat the 1 s watchdog)", st.CommandTimeouts())
	}
	if finished >= 100*sim.Millisecond {
		t.Errorf("recovery took %v, want well under the 1 s command deadline", finished)
	}
}
