package memmodel

import (
	"bytes"
	"testing"
	"testing/quick"

	"snacc/internal/pcie"
	"snacc/internal/sim"
)

func TestURAMBandwidthPerPort(t *testing.T) {
	k := sim.NewKernel()
	u := NewURAM(k, DefaultURAMConfig())
	const total = 2 * sim.MiB
	var done sim.Time
	k.Spawn("reader", func(p *sim.Proc) {
		ReadB(p, u, 0, total, nil)
		done = p.Now()
	})
	k.Run(0)
	bw := float64(total) / done.Seconds()
	if bw < 18e9 || bw > 19.5e9 {
		t.Fatalf("URAM read BW = %.2f GB/s, want ~19.2", bw/1e9)
	}
}

func TestURAMDualPortIndependence(t *testing.T) {
	// Reads and writes on separate ports must not serialize against each
	// other: concurrent 1 MiB in each direction should take about one
	// port-time, not two.
	k := sim.NewKernel()
	u := NewURAM(k, DefaultURAMConfig())
	const n = sim.MiB
	var readDone, writeDone sim.Time
	k.Spawn("reader", func(p *sim.Proc) { ReadB(p, u, 0, n, nil); readDone = p.Now() })
	k.Spawn("writer", func(p *sim.Proc) { WriteB(p, u, uint64(2*sim.MiB), n, nil); writeDone = p.Now() })
	k.Run(0)
	onePort := sim.TransferTime(n, 19.2e9)
	if readDone > onePort*5/4 || writeDone > onePort*5/4 {
		t.Fatalf("dual-port ops serialized: read %v write %v, one-port time %v", readDone, writeDone, onePort)
	}
}

func TestURAMOutOfBoundsPanics(t *testing.T) {
	k := sim.NewKernel()
	u := NewURAM(k, DefaultURAMConfig())
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds URAM access did not panic")
		}
	}()
	u.ReadAccess(uint64(u.Size())-100, 200, pcie.Payload{}, func() {})
}

func TestURAMContentRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	u := NewURAM(k, DefaultURAMConfig())
	want := []byte("streaming network to storage")
	got := make([]byte, len(want))
	k.Spawn("p", func(p *sim.Proc) {
		WriteB(p, u, 4096, int64(len(want)), want)
		ReadB(p, u, 4096, int64(len(got)), got)
	})
	k.Run(0)
	if !bytes.Equal(got, want) {
		t.Fatal("URAM content round trip failed")
	}
}

func TestDRAMTurnaroundPenalty(t *testing.T) {
	// Alternating read/write bursts must be slower than the same volume in
	// a single direction.
	run := func(alternate bool) sim.Time {
		k := sim.NewKernel()
		d := NewDRAM(k, DefaultDRAMConfig())
		var done sim.Time
		k.Spawn("p", func(p *sim.Proc) {
			for i := 0; i < 256; i++ {
				addr := uint64(i) * 4096
				if alternate && i%2 == 1 {
					WriteB(p, d, addr, 4096, nil)
				} else {
					ReadB(p, d, addr, 4096, nil)
				}
			}
			done = p.Now()
		})
		k.Run(0)
		return done
	}
	same, mixed := run(false), run(true)
	if mixed <= same {
		t.Fatalf("mixed-direction DRAM traffic (%v) should be slower than single-direction (%v)", mixed, same)
	}
}

func TestDRAMSequentialFasterThanRandom(t *testing.T) {
	run := func(sequential bool) sim.Time {
		k := sim.NewKernel()
		d := NewDRAM(k, DefaultDRAMConfig())
		r := sim.NewRand(3)
		var done sim.Time
		k.Spawn("p", func(p *sim.Proc) {
			for i := 0; i < 512; i++ {
				var addr uint64
				if sequential {
					addr = uint64(i) * 512
				} else {
					addr = uint64(r.Int63n(d.Size()/512)) * 512
				}
				ReadB(p, d, addr, 512, nil)
			}
			done = p.Now()
		})
		k.Run(0)
		return done
	}
	seq, rnd := run(true), run(false)
	if rnd <= seq {
		t.Fatalf("random DRAM reads (%v) should be slower than sequential (%v)", rnd, seq)
	}
}

func TestDRAMStatsCount(t *testing.T) {
	k := sim.NewKernel()
	d := NewDRAM(k, DefaultDRAMConfig())
	k.Spawn("p", func(p *sim.Proc) {
		ReadB(p, d, 0, 4096, nil)
		WriteB(p, d, 4096, 4096, nil)
		ReadB(p, d, 8192, 4096, nil)
	})
	k.Run(0)
	if d.Accesses() != 3 {
		t.Fatalf("Accesses = %d, want 3", d.Accesses())
	}
	if d.Turnarounds() != 2 {
		t.Fatalf("Turnarounds = %d, want 2 (R→W, W→R)", d.Turnarounds())
	}
}

func TestCoalescerMergesSequentialReads(t *testing.T) {
	k := sim.NewKernel()
	d := NewDRAM(k, DefaultDRAMConfig())
	c := NewBurstCoalescer(k, d, 4096, 20*sim.Nanosecond)
	k.Spawn("p", func(p *sim.Proc) {
		// Eight sequential 512 B reads: one underlying 4 KiB fill.
		for i := 0; i < 8; i++ {
			ReadB(p, c, uint64(i*512), 512, nil)
		}
	})
	k.Run(0)
	if c.Fills() != 1 {
		t.Fatalf("Fills = %d, want 1 (sequential 512B reads coalesce)", c.Fills())
	}
	if c.Hits() != 7 {
		t.Fatalf("Hits = %d, want 7", c.Hits())
	}
	if d.Accesses() != 1 {
		t.Fatalf("underlying DRAM accesses = %d, want 1", d.Accesses())
	}
}

func TestCoalescerNonSequentialMisses(t *testing.T) {
	k := sim.NewKernel()
	d := NewDRAM(k, DefaultDRAMConfig())
	c := NewBurstCoalescer(k, d, 4096, 20*sim.Nanosecond)
	k.Spawn("p", func(p *sim.Proc) {
		ReadB(p, c, 0, 512, nil)
		ReadB(p, c, 1<<20, 512, nil) // jump: new burst
		ReadB(p, c, 1<<20+512, 512, nil)
	})
	k.Run(0)
	if c.Fills() != 2 || c.Hits() != 1 {
		t.Fatalf("Fills/Hits = %d/%d, want 2/1", c.Fills(), c.Hits())
	}
}

func TestCoalescerWriteInvalidatesBurst(t *testing.T) {
	k := sim.NewKernel()
	d := NewDRAM(k, DefaultDRAMConfig())
	c := NewBurstCoalescer(k, d, 4096, 20*sim.Nanosecond)
	k.Spawn("p", func(p *sim.Proc) {
		ReadB(p, c, 0, 512, nil)    // opens burst [0,4096)
		WriteB(p, c, 256, 512, nil) // overlaps: invalidates
		ReadB(p, c, 512, 512, nil)  // must refill, not serve stale
	})
	k.Run(0)
	if c.Fills() != 2 {
		t.Fatalf("Fills = %d, want 2 (write must invalidate open burst)", c.Fills())
	}
}

func TestCoalescerContentCorrect(t *testing.T) {
	k := sim.NewKernel()
	d := NewDRAM(k, DefaultDRAMConfig())
	c := NewBurstCoalescer(k, d, 4096, 20*sim.Nanosecond)
	want := make([]byte, 2048)
	for i := range want {
		want[i] = byte(i * 3)
	}
	got := make([]byte, len(want))
	k.Spawn("p", func(p *sim.Proc) {
		WriteB(p, c, 0, int64(len(want)), want)
		for i := 0; i < 4; i++ {
			ReadB(p, c, uint64(i*512), 512, got[i*512:(i+1)*512])
		}
	})
	k.Run(0)
	if !bytes.Equal(got, want) {
		t.Fatal("coalesced reads returned wrong content")
	}
}

func TestCoalescerEndOfMemory(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultDRAMConfig()
	cfg.Size = 8192
	d := NewDRAM(k, cfg)
	c := NewBurstCoalescer(k, d, 4096, 20*sim.Nanosecond)
	ok := false
	k.Spawn("p", func(p *sim.Proc) {
		ReadB(p, c, 6144, 2048, nil) // burst clipped at memory end
		ok = true
	})
	k.Run(0)
	if !ok {
		t.Fatal("read near end of memory did not complete")
	}
}

func TestChunkedBufferTranslate(t *testing.T) {
	b := NewChunkedBuffer(4*sim.MiB, []uint64{0x10_0000_0000, 0x20_0000_0000, 0x30_0000_0000})
	if b.Size() != 12*sim.MiB {
		t.Fatalf("Size = %d, want 12 MiB", b.Size())
	}
	phys, contig := b.Translate(0)
	if phys != 0x10_0000_0000 || contig != 4*sim.MiB {
		t.Fatalf("Translate(0) = %#x,%d", phys, contig)
	}
	phys, contig = b.Translate(4*sim.MiB + 100)
	if phys != 0x20_0000_0064 || contig != 4*sim.MiB-100 {
		t.Fatalf("Translate(chunk1+100) = %#x,%d", phys, contig)
	}
}

func TestChunkedBufferRunsSplitAtChunkBoundaries(t *testing.T) {
	b := NewChunkedBuffer(4*sim.MiB, []uint64{0x1000_0000, 0x9000_0000})
	runs := b.Runs(4*sim.MiB-1024, 2048)
	if len(runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(runs))
	}
	if runs[0].Phys != 0x1000_0000+uint64(4*sim.MiB-1024) || runs[0].Len != 1024 {
		t.Fatalf("run0 = %+v", runs[0])
	}
	if runs[1].Phys != 0x9000_0000 || runs[1].Len != 1024 {
		t.Fatalf("run1 = %+v", runs[1])
	}
}

func TestChunkedBufferMergesAdjacentChunks(t *testing.T) {
	// Physically adjacent chunks must merge into one run.
	b := NewChunkedBuffer(4*sim.MiB, []uint64{0x1000_0000, 0x1000_0000 + uint64(4*sim.MiB)})
	runs := b.Runs(0, 8*sim.MiB)
	if len(runs) != 1 || runs[0].Len != 8*sim.MiB {
		t.Fatalf("adjacent chunks should merge: %+v", runs)
	}
}

func TestChunkedBufferRunsProperty(t *testing.T) {
	// Runs must cover exactly the requested range, in order, without gaps.
	f := func(offRaw, lenRaw uint32) bool {
		b := NewChunkedBuffer(1<<20, []uint64{1 << 32, 5 << 32, 3 << 32, 9 << 32})
		off := int64(offRaw) % b.Size()
		n := int64(lenRaw) % (b.Size() - off)
		runs := b.Runs(off, n)
		var total int64
		for _, r := range runs {
			if r.Len <= 0 {
				return false
			}
			total += r.Len
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestChunkedBufferOutOfRangePanics(t *testing.T) {
	b := NewChunkedBuffer(1<<20, []uint64{0})
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Runs did not panic")
		}
	}()
	b.Runs(1<<20-10, 20)
}

func TestHBMAggregateBandwidth(t *testing.T) {
	// Concurrent streams across channels must far exceed one channel.
	k := sim.NewKernel()
	h := NewHBM(k, DefaultHBMConfig())
	const streams = 8
	const per = 4 * sim.MiB
	var done sim.Time
	remaining := streams
	for i := 0; i < streams; i++ {
		base := uint64(int64(i) * 256 * sim.MiB)
		k.Spawn("s", func(p *sim.Proc) {
			ReadB(p, h, base, per, nil)
			remaining--
			if remaining == 0 {
				done = p.Now()
			}
		})
	}
	k.Run(0)
	bw := float64(streams*per) / done.Seconds()
	if bw < 80e9 {
		t.Fatalf("HBM aggregate = %.1f GB/s, want well above one channel's 14.4", bw/1e9)
	}
}

func TestHBMReadWriteIsolation(t *testing.T) {
	// A read stream and a write stream on disjoint regions should barely
	// slow each other — unlike the single DDR4 controller.
	measure := func(concurrent bool) sim.Time {
		k := sim.NewKernel()
		h := NewHBM(k, DefaultHBMConfig())
		var readDone sim.Time
		k.Spawn("r", func(p *sim.Proc) {
			ReadB(p, h, 0, 8*sim.MiB, nil)
			readDone = p.Now()
		})
		if concurrent {
			k.Spawn("w", func(p *sim.Proc) {
				WriteB(p, h, uint64(1*sim.GiB), 8*sim.MiB, nil)
			})
		}
		k.Run(0)
		return readDone
	}
	alone, shared := measure(false), measure(true)
	if shared > alone*5/4 {
		t.Fatalf("read slowed from %v to %v under a concurrent write; HBM channels should isolate", alone, shared)
	}
}

func TestHBMContentRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	h := NewHBM(k, DefaultHBMConfig())
	want := make([]byte, 64*1024)
	for i := range want {
		want[i] = byte(i * 13)
	}
	got := make([]byte, len(want))
	k.Spawn("p", func(p *sim.Proc) {
		WriteB(p, h, 12345, int64(len(want)), want)
		ReadB(p, h, 12345, int64(len(got)), got)
	})
	k.Run(0)
	if !bytes.Equal(got, want) {
		t.Fatal("HBM content round trip failed")
	}
}

func TestHBMRouteCoversAllChannels(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultHBMConfig()
	h := NewHBM(k, cfg)
	seen := map[int]bool{}
	for i := 0; i < cfg.Channels*2; i++ {
		ch, _ := h.route(uint64(int64(i) * cfg.InterleaveBytes))
		seen[ch] = true
	}
	if len(seen) != cfg.Channels {
		t.Fatalf("interleaving touched %d of %d channels", len(seen), cfg.Channels)
	}
}

func TestHBMOutOfRangePanics(t *testing.T) {
	k := sim.NewKernel()
	h := NewHBM(k, DefaultHBMConfig())
	defer func() {
		if recover() == nil {
			t.Error("out-of-range HBM access accepted")
		}
	}()
	h.ReadAccess(uint64(h.Size())-100, 200, pcie.Payload{}, func() {})
}
