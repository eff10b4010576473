package spdk

import (
	"testing"

	"snacc/internal/nvme"
	"snacc/internal/obs"
	"snacc/internal/sim"
)

// These tests pin the SPDK reference path against the paper's Figure 4
// measurements (see EXPERIMENTS.md for the calibration discussion). The
// tolerances are deliberately loose enough to survive refactoring of the
// underlying models but tight enough to catch a broken mechanism.

func measure(t *testing.T, fn func(p *sim.Proc, d *Driver) float64) float64 {
	t.Helper()
	k, host, _ := rig(false)
	var out float64
	k.Spawn("bench", func(p *sim.Proc) {
		d, err := Attach(p, host, testBAR, DefaultDriverConfig())
		if err != nil {
			t.Errorf("Attach: %v", err)
			return
		}
		out = fn(p, d)
	})
	k.Run(0)
	return out
}

func TestCalibrationSeqRead(t *testing.T) {
	got := measure(t, func(p *sim.Proc, d *Driver) float64 {
		return Sequential(p, d, nvme.OpRead, 512*sim.MiB, sim.MiB, 0).GBps()
	})
	if got < 6.5 || got > 7.1 {
		t.Errorf("SPDK seq read = %.2f GB/s, paper: 6.9", got)
	}
}

func TestCalibrationSeqWrite(t *testing.T) {
	got := measure(t, func(p *sim.Proc, d *Driver) float64 {
		return Sequential(p, d, nvme.OpWrite, 512*sim.MiB, sim.MiB, 0).GBps()
	})
	if got < 5.7 || got > 6.5 {
		t.Errorf("SPDK seq write = %.2f GB/s, paper: 5.90-6.24", got)
	}
}

func TestCalibrationSeqWriteBimodal(t *testing.T) {
	// Consecutive 1 GiB-epoch halves must alternate between the two program
	// rates "without any intermediate values" (§5.2).
	k, host, _ := rig(false)
	var rates []float64
	k.Spawn("bench", func(p *sim.Proc) {
		d, err := Attach(p, host, testBAR, DefaultDriverConfig())
		if err != nil {
			t.Errorf("Attach: %v", err)
			return
		}
		for i := 0; i < 4; i++ {
			r := Sequential(p, d, nvme.OpWrite, sim.GiB, sim.MiB, 0)
			rates = append(rates, r.GBps())
		}
	})
	k.Run(0)
	if len(rates) != 4 {
		t.Fatal("missing measurements")
	}
	// Expect alternation: |r0-r2| small, |r0-r1| large.
	diffAdj := rates[0] - rates[1]
	if diffAdj < 0 {
		diffAdj = -diffAdj
	}
	diffAlt := rates[0] - rates[2]
	if diffAlt < 0 {
		diffAlt = -diffAlt
	}
	if diffAdj < 0.15 {
		t.Errorf("adjacent epochs too similar (%.3f vs %.3f GB/s); expected bimodal alternation: %v",
			rates[0], rates[1], rates)
	}
	// The first epoch benefits slightly from the initially empty write
	// buffer, so allow a modest mismatch between same-parity epochs.
	if diffAlt > 0.15 {
		t.Errorf("alternating epochs should match: %v", rates)
	}
}

func TestCalibrationRandRead(t *testing.T) {
	got := measure(t, func(p *sim.Proc, d *Driver) float64 {
		return RandomIO(p, d, nvme.OpRead, 128*sim.MiB, 4096, 99).GBps()
	})
	if got < 3.9 || got > 5.1 {
		t.Errorf("SPDK rand read = %.2f GB/s, paper: 4.5", got)
	}
}

func TestCalibrationRandWrite(t *testing.T) {
	got := measure(t, func(p *sim.Proc, d *Driver) float64 {
		return RandomIO(p, d, nvme.OpWrite, 128*sim.MiB, 4096, 7).GBps()
	})
	if got < 4.8 || got > 5.7 {
		t.Errorf("SPDK rand write = %.2f GB/s, paper: 5.25", got)
	}
}

func TestCalibrationReadLatency(t *testing.T) {
	k, host, _ := rig(false)
	var mean sim.Time
	k.Spawn("bench", func(p *sim.Proc) {
		d, err := Attach(p, host, testBAR, DefaultDriverConfig())
		if err != nil {
			t.Errorf("Attach: %v", err)
			return
		}
		mean = obs.Mean(Latency(p, d, nvme.OpRead, 4096, 200, 5))
	})
	k.Run(0)
	if mean < 50*sim.Microsecond || mean > 64*sim.Microsecond {
		t.Errorf("SPDK 4k read latency = %v, paper: 57us", mean)
	}
}

func TestCalibrationWriteLatency(t *testing.T) {
	k, host, _ := rig(false)
	var mean sim.Time
	k.Spawn("bench", func(p *sim.Proc) {
		d, err := Attach(p, host, testBAR, DefaultDriverConfig())
		if err != nil {
			t.Errorf("Attach: %v", err)
			return
		}
		mean = obs.Mean(Latency(p, d, nvme.OpWrite, 4096, 200, 5))
	})
	k.Run(0)
	if mean >= 9*sim.Microsecond {
		t.Errorf("SPDK 4k write latency = %v, paper: < 9us", mean)
	}
}

func TestRandReadScalesWithQueueDepth(t *testing.T) {
	// §5.2: "SPDK can achieve even higher bandwidth when the submission
	// queue size is increased."
	run := func(qd int) float64 {
		k, host, _ := rig(false)
		cfg := DefaultDriverConfig()
		cfg.QueueDepth = qd
		var out float64
		k.Spawn("bench", func(p *sim.Proc) {
			d, err := Attach(p, host, testBAR, cfg)
			if err != nil {
				t.Errorf("Attach: %v", err)
				return
			}
			out = RandomIO(p, d, nvme.OpRead, 64*sim.MiB, 4096, 3).GBps()
		})
		k.Run(0)
		return out
	}
	bw4, bw16, bw64 := run(4), run(16), run(64)
	if !(bw4 < bw16 && bw16 < bw64) {
		t.Errorf("rand-read should scale with QD: 4→%.2f 16→%.2f 64→%.2f GB/s", bw4, bw16, bw64)
	}
}
