package tapasco

import (
	"testing"

	"snacc/internal/pcie"
	"snacc/internal/sim"
)

// adderPE is a toy kernel: return arg0 + arg1 after a fixed compute time.
func adderPE(latency sim.Time) PE {
	return PEFunc{Label: "adder", Fn: func(p *sim.Proc, args []uint64) uint64 {
		p.Sleep(latency)
		return args[0] + args[1]
	}}
}

func TestPELaunchRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	pl := NewPlatform(k, DefaultU280())
	pl.Compose(11, 1, func(int) PE { return adderPE(5 * sim.Microsecond) })
	rt := NewRuntime(pl)
	var got uint64
	var err error
	k.Spawn("app", func(p *sim.Proc) {
		got, err = rt.Launch(p, 11, 40, 2)
	})
	k.Run(0)
	if err != nil {
		t.Fatalf("launch: %v", err)
	}
	if got != 42 {
		t.Fatalf("PE returned %d, want 42", got)
	}
}

func TestPELaunchConsumesSimTime(t *testing.T) {
	k := sim.NewKernel()
	pl := NewPlatform(k, DefaultU280())
	pl.Compose(11, 1, func(int) PE { return adderPE(100 * sim.Microsecond) })
	rt := NewRuntime(pl)
	var elapsed sim.Time
	k.Spawn("app", func(p *sim.Proc) {
		start := p.Now()
		if _, err := rt.Launch(p, 11, 1, 2); err != nil {
			t.Errorf("%v", err)
		}
		elapsed = p.Now() - start
	})
	k.Run(0)
	if elapsed < 100*sim.Microsecond {
		t.Fatalf("launch took %v, must include the PE's 100us compute", elapsed)
	}
}

func TestPEUnknownKernel(t *testing.T) {
	k := sim.NewKernel()
	pl := NewPlatform(k, DefaultU280())
	rt := NewRuntime(pl)
	var err error
	k.Spawn("app", func(p *sim.Proc) {
		_, err = rt.Launch(p, 99, 1)
	})
	k.Run(0)
	if err == nil {
		t.Fatal("launch of uncomposed kernel succeeded")
	}
}

func TestPEMultiSlotParallelism(t *testing.T) {
	// Two slots of the same kernel must overlap: four 100us jobs on two
	// slots finish in ~200us, not 400us.
	k := sim.NewKernel()
	pl := NewPlatform(k, DefaultU280())
	pl.Compose(7, 2, func(int) PE { return adderPE(100 * sim.Microsecond) })
	rt := NewRuntime(pl)
	if rt.SlotCount(7) != 2 {
		t.Fatalf("SlotCount = %d", rt.SlotCount(7))
	}
	var done sim.Time
	finished := 0
	for j := 0; j < 4; j++ {
		j := j
		k.Spawn("job", func(p *sim.Proc) {
			if _, err := rt.Launch(p, 7, uint64(j), 0); err != nil {
				t.Errorf("%v", err)
			}
			finished++
			if finished == 4 {
				done = p.Now()
			}
		})
	}
	k.Run(0)
	if finished != 4 {
		t.Fatalf("finished = %d", finished)
	}
	if done > 320*sim.Microsecond {
		t.Fatalf("4 jobs on 2 slots took %v; slots did not run in parallel", done)
	}
	if done < 200*sim.Microsecond {
		t.Fatalf("4 jobs took only %v; compute time lost", done)
	}
}

func TestPEConcurrentDifferentKernels(t *testing.T) {
	k := sim.NewKernel()
	pl := NewPlatform(k, DefaultU280())
	pl.Compose(1, 1, func(int) PE { return adderPE(50 * sim.Microsecond) })
	pl.Compose(2, 1, func(int) PE {
		return PEFunc{Label: "mul", Fn: func(p *sim.Proc, args []uint64) uint64 {
			p.Sleep(30 * sim.Microsecond)
			return args[0] * args[1]
		}}
	})
	rt := NewRuntime(pl)
	var sum, prod uint64
	k.Spawn("a", func(p *sim.Proc) { sum, _ = rt.Launch(p, 1, 3, 4) })
	k.Spawn("b", func(p *sim.Proc) { prod, _ = rt.Launch(p, 2, 3, 4) })
	k.Run(0)
	if sum != 7 || prod != 12 {
		t.Fatalf("sum=%d prod=%d", sum, prod)
	}
}

func TestDMAEngineRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	pl := NewPlatform(k, DefaultU280())
	pl.AddDMAEngine()
	rt := NewRuntime(pl)
	hostBuf := pl.Host.Alloc(sim.MiB, 4096)
	var elapsed sim.Time
	k.Spawn("app", func(p *sim.Proc) {
		dev := rt.AllocDevice(sim.MiB)
		start := p.Now()
		rt.CopyToDevice(p, hostBuf, dev, sim.MiB)
		rt.CopyFromDevice(p, hostBuf, dev, sim.MiB)
		elapsed = p.Now() - start
	})
	k.Run(0)
	if pl.dma.Transfers() != 2 || pl.dma.BytesMoved() != 2*sim.MiB {
		t.Fatalf("dma stats: %d transfers, %d bytes", pl.dma.Transfers(), pl.dma.BytesMoved())
	}
	// 2 MiB over a ~15 GB/s link can't finish faster than ~130us.
	if elapsed < 100*sim.Microsecond {
		t.Fatalf("DMA round trip took %v; bus time unaccounted", elapsed)
	}
}

func TestDMAWithPEPipeline(t *testing.T) {
	// The classic TaPaSCo flow: copy in, launch, copy out.
	k := sim.NewKernel()
	pl := NewPlatform(k, DefaultU280())
	pl.AddDMAEngine()
	pl.Compose(5, 1, func(int) PE {
		return PEFunc{Label: "sum", Fn: func(p *sim.Proc, args []uint64) uint64 {
			// Pretend to stream args[1] bytes at the fabric rate.
			p.Sleep(sim.TransferTime(int64(args[1]), 19.2e9))
			return args[0] ^ 0xFF
		}}
	})
	rt := NewRuntime(pl)
	hostBuf := pl.Host.Alloc(256*sim.KiB, 4096)
	var ret uint64
	k.Spawn("app", func(p *sim.Proc) {
		dev := rt.AllocDevice(256 * sim.KiB)
		rt.CopyToDevice(p, hostBuf, dev, 256*sim.KiB)
		r, err := rt.Launch(p, 5, dev, uint64(256*sim.KiB))
		if err != nil {
			t.Errorf("%v", err)
		}
		ret = r
		rt.CopyFromDevice(p, hostBuf, dev, 256*sim.KiB)
	})
	k.Run(0)
	if ret == 0 {
		t.Fatal("PE return value lost")
	}
}

func TestPEArgRegisterLimit(t *testing.T) {
	k := sim.NewKernel()
	pl := NewPlatform(k, DefaultU280())
	pl.Compose(3, 1, func(int) PE { return adderPE(0) })
	rt := NewRuntime(pl)
	var err error
	k.Spawn("app", func(p *sim.Proc) {
		args := make([]uint64, peMaxArgs+1)
		_, err = rt.Launch(p, 3, args...)
	})
	k.Run(0)
	if err == nil {
		t.Fatal("launch with too many arguments succeeded")
	}
}

// TestDMARawRegisterInterface drives the engine exactly like a host driver:
// descriptor registers written over PCIe, start bit, then busy-polling the
// control register until the transfer completes.
func TestDMARawRegisterInterface(t *testing.T) {
	k := sim.NewKernel()
	pl := NewPlatform(k, DefaultU280())
	e := pl.AddDMAEngine()
	NewRuntime(pl)
	host := pl.Host
	src := host.Alloc(64*sim.KiB, 4096)
	completed := false
	k.Spawn("driver", func(p *sim.Proc) {
		w32 := func(off uint64, v uint32) {
			host.Port.WriteB(p, e.base+off, 4, []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
		}
		w32(dmaRegHostLo, uint32(src))
		w32(dmaRegHostHi, uint32(src>>32))
		w32(dmaRegDevLo, 0)
		w32(dmaRegDevHi, 0)
		w32(dmaRegLenLo, 64*1024)
		w32(dmaRegLenHi, 0)
		w32(dmaRegCtrl, 1) // start, host -> card
		// Busy-poll the control register like tlkm does.
		buf := make([]byte, 4)
		for {
			host.Port.ReadB(p, e.base+dmaRegCtrl, 4, buf)
			if buf[0]&1 == 0 {
				break
			}
			p.Sleep(5 * sim.Microsecond)
		}
		completed = true
	})
	k.Run(0)
	if !completed {
		t.Fatal("poll loop never observed completion")
	}
	if e.Transfers() != 1 || e.BytesMoved() != 64*1024 {
		t.Fatalf("engine stats: %d transfers / %d bytes", e.Transfers(), e.BytesMoved())
	}
}

func TestDMADoubleStartPanics(t *testing.T) {
	k := sim.NewKernel()
	pl := NewPlatform(k, DefaultU280())
	e := pl.AddDMAEngine()
	NewRuntime(pl)
	defer func() {
		if recover() == nil {
			t.Error("second start while busy accepted")
		}
	}()
	regs := (*dmaRegs)(e)
	regs.CompleteWrite(e.base+dmaRegLenLo, 4, pcie.Bytes([]byte{0, 16, 0, 0}))
	regs.CompleteWrite(e.base+dmaRegCtrl, 4, pcie.Bytes([]byte{1, 0, 0, 0}))
	regs.CompleteWrite(e.base+dmaRegCtrl, 4, pcie.Bytes([]byte{1, 0, 0, 0}))
}

func TestPlatformConfigAccessor(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultXUPVVH()
	pl := NewPlatform(k, cfg)
	if pl.Config().CardName != cfg.CardName {
		t.Fatal("Config accessor returned wrong config")
	}
}
