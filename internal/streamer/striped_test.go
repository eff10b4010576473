package streamer_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"snacc/internal/fault"
	"snacc/internal/nvme"
	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
)

// stripedRig builds n SSD+streamer pairs consolidated into one address
// space. An optional mutator adjusts every member's streamer config.
func stripedRig(t *testing.T, n int, functional bool, mut ...func(*streamer.Config)) (*sim.Kernel, *streamer.Striped, []*nvme.Device) {
	t.Helper()
	k := sim.NewKernel()
	pl := tapasco.NewPlatform(k, tapasco.DefaultU280())
	var sts []*streamer.Streamer
	var devs []*nvme.Device
	var drvs []*tapasco.Driver
	for i := 0; i < n; i++ {
		bar := uint64(ssdBAR) + uint64(i)*0x100000
		name := fmt.Sprintf("ssd%d", i)
		devCfg := nvme.DefaultConfig(name, bar)
		devCfg.Functional = functional
		devs = append(devs, nvme.New(k, pl.Fabric, devCfg))
		stCfg := streamer.DefaultConfig(fmt.Sprintf("snacc%d", i), 0, streamer.URAM)
		stCfg.Functional = functional
		for _, m := range mut {
			m(&stCfg)
		}
		sts = append(sts, pl.AddStreamer(stCfg))
		drvs = append(drvs, tapasco.NewDriver(pl, name, bar))
	}
	ok := false
	k.Spawn("init", func(p *sim.Proc) {
		for i := range drvs {
			if err := drvs[i].InitController(p); err != nil {
				t.Errorf("%v", err)
				return
			}
			if err := drvs[i].AttachStreamer(p, sts[i], 1); err != nil {
				t.Errorf("%v", err)
				return
			}
		}
		ok = true
	})
	k.Run(0)
	if !ok {
		t.Fatal("striped init failed")
	}
	return k, streamer.NewStriped(k, sts, sim.MiB), devs
}

// stripedWrite writes through s and fails the test on a member error.
func stripedWrite(t *testing.T, p *sim.Proc, s *streamer.Striped, addr uint64, n int64, data []byte) {
	t.Helper()
	if err := s.WriteErr(p, addr, n, data); err != nil {
		t.Errorf("striped write %d@%#x: %v", n, addr, err)
	}
}

// stripedRead reads through s and fails the test on a member error.
func stripedRead(t *testing.T, p *sim.Proc, s *streamer.Striped, addr uint64, n int64) []byte {
	t.Helper()
	data, err := s.ReadErr(p, addr, n)
	if err != nil {
		t.Errorf("striped read %d@%#x: %v", n, addr, err)
	}
	return data
}

func TestStripedRoundTrip(t *testing.T) {
	k, s, devs := stripedRig(t, 3, true)
	want := make([]byte, 5*sim.MiB+8192) // spans several stripes, uneven tail
	for i := range want {
		want[i] = byte(i * 11)
	}
	k.Spawn("app", func(p *sim.Proc) {
		stripedWrite(t, p, s, 0, int64(len(want)), want)
		got := stripedRead(t, p, s, 0, int64(len(want)))
		if !bytes.Equal(got, want) {
			t.Error("striped round trip corrupted data")
		}
	})
	k.Run(0)
	for i, d := range devs {
		if d.Errors() != 0 {
			t.Errorf("ssd%d errors: %d", i, d.Errors())
		}
		if d.Port().PayloadRx() == 0 {
			t.Errorf("ssd%d received no payload; striping skipped a member", i)
		}
	}
}

func TestStripedDistributesEvenly(t *testing.T) {
	k, s, devs := stripedRig(t, 4, false)
	k.Spawn("app", func(p *sim.Proc) {
		stripedWrite(t, p, s, 0, 32*sim.MiB, nil)
	})
	k.Run(0)
	var min, max int64 = 1 << 62, 0
	for _, d := range devs {
		rx := d.Port().PayloadRx()
		if rx < min {
			min = rx
		}
		if rx > max {
			max = rx
		}
	}
	if min == 0 || float64(max-min)/float64(max) > 0.1 {
		t.Fatalf("stripe imbalance: min %d max %d", min, max)
	}
}

func TestStripedAggregatesBandwidth(t *testing.T) {
	measure := func(n int) float64 {
		k, s, _ := stripedRig(t, n, false)
		var el sim.Time
		k.Spawn("app", func(p *sim.Proc) {
			start := p.Now()
			stripedWrite(t, p, s, 0, 96*sim.MiB, nil)
			el = p.Now() - start
		})
		k.Run(0)
		return float64(96*sim.MiB) / el.Seconds() / 1e9
	}
	one, three := measure(1), measure(3)
	if three < one*2.5 {
		t.Fatalf("3-way stripe = %.2f GB/s vs single %.2f; expected near-3x", three, one)
	}
}

func TestStripedUnalignedAddressPanics(t *testing.T) {
	k, s, _ := stripedRig(t, 2, false)
	_ = k
	defer func() {
		if recover() == nil {
			t.Error("unaligned striped address accepted")
		}
	}()
	// mapRange validation fires synchronously on the test goroutine.
	// Sub-sector alignment is the hard floor; stripe alignment is no
	// longer required.
	s.WriteAsync(nil, 100, sim.MiB, nil)
}

func TestStripedSubStripeRoundTrip(t *testing.T) {
	// A transfer that starts and ends mid-stripe must land on the right
	// members at the right member offsets.
	k, s, _ := stripedRig(t, 3, true)
	const addr = uint64(sim.MiB/2 + 4096) // mid-stripe start
	const n = 2*sim.MiB + 1024            // mid-stripe end, spans 3+ members
	want := make([]byte, n)
	for i := range want {
		want[i] = byte(i * 7)
	}
	var got []byte
	k.Spawn("main", func(p *sim.Proc) {
		stripedWrite(t, p, s, addr, n, want)
		got = stripedRead(t, p, s, addr, n)
	})
	k.Run(0)
	if !bytes.Equal(got, want) {
		t.Fatal("sub-stripe round trip corrupted data")
	}
}

// TestStripedRandomizedIntegrity runs randomized overlapping writes and
// reads over the consolidated striped address space against a byte-exact
// shadow model — stripe mapping, per-member queues and cross-image
// pipelining must all preserve bytes and ordering.
func TestStripedRandomizedIntegrity(t *testing.T) {
	k, s, _ := stripedRig(t, 3, true)
	const span = 12 << 20 // spans many 1 MiB stripes across 3 members
	shadow := make([]byte, span)
	rng := sim.NewRand(777)
	var failure string
	k.Spawn("main", func(p *sim.Proc) {
		for op := 0; op < 100; op++ {
			// Sizes up to 3 MiB cross stripe and member boundaries.
			n := (rng.Int63n(6144) + 1) * 512
			addr := uint64(rng.Int63n((span-n)/512)) * 512
			if rng.Float64() < 0.55 {
				data := make([]byte, n)
				for i := range data {
					data[i] = byte(rng.Int63n(256))
				}
				stripedWrite(t, p, s, addr, n, data)
				copy(shadow[addr:], data)
			} else {
				got := stripedRead(t, p, s, addr, n)
				if !bytes.Equal(got, shadow[addr:addr+uint64(n)]) {
					failure = fmt.Sprintf("op %d: read %d@%#x diverged", op, n, addr)
					return
				}
			}
		}
		got := stripedRead(t, p, s, 0, span)
		if !bytes.Equal(got, shadow) {
			for i := range got {
				if got[i] != shadow[i] {
					failure = fmt.Sprintf("final readback diverged at byte %d", i)
					return
				}
			}
		}
	})
	k.Run(0)
	if failure != "" {
		t.Fatal(failure)
	}
}

// TestStripedDegradedOperation: when one member's controller dies
// permanently, its stripes must fail with clear errors while the surviving
// members keep streaming theirs — degraded multi-SSD operation, not an
// all-stop.
func TestStripedDegradedOperation(t *testing.T) {
	k, s, devs := stripedRig(t, 3, true, func(cfg *streamer.Config) {
		crashRecovery(cfg)
		cfg.MaxResets = 0 // first trip is terminal: member death, not recovery
	})
	// Kill member 1 at its second command; members 0 and 2 stay healthy.
	inj := fault.NewInjector(7)
	inj.Add(fault.Rule{Name: "crash-m1", Kind: fault.CrashCtrl, Opcode: fault.OpAny,
		Nth: 2, Count: 1})
	inj.Attach(devs[1])
	const span = 6 * sim.MiB // two 1 MiB stripes per member
	want := make([]byte, span)
	for i := range want {
		want[i] = byte(i*13 + 7)
	}
	done := false
	k.Spawn("app", func(p *sim.Proc) {
		if err := s.WriteErr(p, 0, span, want); err == nil {
			t.Error("write across a dying member reported no error")
		}
		got, err := s.ReadErr(p, 0, span)
		if err == nil {
			t.Error("read with a dead member reported no error")
		}
		// Survivors' stripes (members 0 and 2 own logical stripes 0, 2, 3, 5)
		// must come back byte-exact; the dead member's stripes read as zero.
		for _, stripe := range []int64{0, 2, 3, 5} {
			lo, hi := stripe*sim.MiB, (stripe+1)*sim.MiB
			if !bytes.Equal(got[lo:hi], want[lo:hi]) {
				t.Errorf("surviving stripe %d corrupted in degraded read", stripe)
			}
		}
		done = true
	})
	k.Run(0)
	if !done {
		t.Fatal("app never finished against a degraded set")
	}
	if dead := s.DeadMembers(); len(dead) != 1 || dead[0] != 1 {
		t.Errorf("dead members = %v, want [1]", dead)
	}
	if s.DegradedWrites() == 0 || s.DegradedReads() == 0 {
		t.Errorf("degraded writes/reads = %d/%d, want both > 0",
			s.DegradedWrites(), s.DegradedReads())
	}
	if s.Member(1).Streamer().ControllerResets() != 0 {
		t.Errorf("member 1 resets = %d with MaxResets = 0", s.Member(1).Streamer().ControllerResets())
	}
}

// TestStripedMemberDiesDuringRead is the race-window regression: a member
// that is alive when ReadErr maps the range (mapRange) but dies before its
// stripes finish must fail those stripes with an error attributed to the
// member — never report success over stale or zero payload. The window is
// forced with a hang that fires on the member's first read command, so the
// member passes every liveness check at submission time and dies only
// after the read is committed to it.
func TestStripedMemberDiesDuringRead(t *testing.T) {
	k, s, devs := stripedRig(t, 3, true, func(cfg *streamer.Config) {
		crashRecovery(cfg)
		cfg.MaxResets = 0 // first breaker trip is terminal
	})
	// Member 1 freezes as its first read command completes and stays frozen
	// past the breaker ladder (2 x 20 ms command timeouts), so it dies
	// mid-read; writes are unaffected.
	inj := fault.NewInjector(3)
	inj.Add(fault.Rule{Name: "hang-m1", Kind: fault.HangCtrl, Opcode: nvme.OpRead,
		Nth: 1, Count: 1, Delay: 200 * sim.Millisecond})
	inj.Attach(devs[1])

	const span = 6 * sim.MiB // stripes 0..5; member 1 owns 1 and 4
	want := make([]byte, span)
	for i := range want {
		want[i] = byte(i*3 + 1)
	}
	done := false
	k.Spawn("app", func(p *sim.Proc) {
		if err := s.WriteErr(p, 0, span, want); err != nil {
			t.Errorf("healthy write failed: %v", err)
		}
		got, err := s.ReadErr(p, 0, span)
		if err == nil {
			t.Error("read across a mid-read-dying member reported no error")
		} else if !strings.Contains(err.Error(), "striped member 1") {
			t.Errorf("degraded read error not attributed to the dead member: %v", err)
		}
		// Survivors' stripes stream back byte-exact even while member 1
		// times out alongside them.
		for _, stripe := range []int64{0, 2, 3, 5} {
			lo, hi := stripe*sim.MiB, (stripe+1)*sim.MiB
			if !bytes.Equal(got[lo:hi], want[lo:hi]) {
				t.Errorf("surviving stripe %d corrupted in degraded read", stripe)
			}
		}
		done = true
	})
	k.Run(0)
	if !done {
		t.Fatal("app never finished against the dying member")
	}
	if dead := s.DeadMembers(); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("dead members = %v, want [1]", dead)
	}
	if s.DegradedReads() == 0 {
		t.Error("mid-read death not counted as a degraded read")
	}
}

// TestOutOfOrderRandomizedIntegrity checks the §7 out-of-order extension
// preserves data and per-request ordering under a randomized mixed load —
// retirement may reorder commands, but each PE read's pieces must still
// stream in order with intact bytes.
func TestOutOfOrderRandomizedIntegrity(t *testing.T) {
	k, c, _ := rig(t, streamer.URAM, true, func(cfg *streamer.Config) {
		cfg.OutOfOrder = true
	})
	const span = 4 << 20
	shadow := make([]byte, span)
	rng := sim.NewRand(4242)
	var failure string
	k.Spawn("main", func(p *sim.Proc) {
		for op := 0; op < 100; op++ {
			n := (rng.Int63n(96) + 1) * 512
			addr := uint64(rng.Int63n((span-n)/512)) * 512
			if rng.Float64() < 0.55 {
				data := make([]byte, n)
				for i := range data {
					data[i] = byte(rng.Int63n(256))
				}
				c.Write(p, addr, n, data)
				copy(shadow[addr:], data)
			} else {
				got := c.Read(p, addr, n)
				if !bytes.Equal(got, shadow[addr:addr+uint64(n)]) {
					failure = fmt.Sprintf("op %d: read %d@%#x diverged", op, n, addr)
					return
				}
			}
		}
		got := c.Read(p, 0, span)
		if !bytes.Equal(got, shadow) {
			failure = "final readback diverged"
		}
	})
	k.Run(0)
	if failure != "" {
		t.Fatal(failure)
	}
}
