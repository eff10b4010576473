package memmodel

import (
	"bytes"
	"testing"
	"testing/quick"

	"snacc/internal/pcie"
	"snacc/internal/sim"
)

// readB performs a blocking read on any Memory, filling buf (nil for
// timing-only).
func readB(p *sim.Proc, m Memory, addr uint64, n int64, buf []byte) {
	done := false
	m.ReadAccess(addr, n, pcie.Bytes(buf), func() { done = true; p.Wake() })
	for !done {
		p.Park()
	}
}

// writeB performs a blocking write on any Memory of data (nil for
// timing-only).
func writeB(p *sim.Proc, m Memory, addr uint64, n int64, data []byte) {
	done := false
	m.WriteAccess(addr, n, pcie.Bytes(data), func() { done = true; p.Wake() })
	for !done {
		p.Park()
	}
}

// testURAMConfig is the paper's 4 MB buffer at 300 MHz × 64 B.
func testURAMConfig() URAMConfig {
	return URAMConfig{
		Size:       4 * sim.MiB,
		WidthBytes: 64,
		ClockHz:    300e6,
		Latency:    100 * sim.Nanosecond,
	}
}

func TestURAMBandwidthPerPort(t *testing.T) {
	k := sim.NewKernel()
	u := NewURAM(k, testURAMConfig())
	const total = 2 * sim.MiB
	var done sim.Time
	k.Spawn("reader", func(p *sim.Proc) {
		readB(p, u, 0, total, nil)
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
	u := NewURAM(k, testURAMConfig())
	const n = sim.MiB
	var readDone, writeDone sim.Time
	k.Spawn("reader", func(p *sim.Proc) { readB(p, u, 0, n, nil); readDone = p.Now() })
	k.Spawn("writer", func(p *sim.Proc) { writeB(p, u, uint64(2*sim.MiB), n, nil); writeDone = p.Now() })
	k.Run(0)
	onePort := sim.TransferTime(n, 19.2e9)
	if readDone > onePort*5/4 || writeDone > onePort*5/4 {
		t.Fatalf("dual-port ops serialized: read %v write %v, one-port time %v", readDone, writeDone, onePort)
	}
}

func TestURAMOutOfBoundsPanics(t *testing.T) {
	k := sim.NewKernel()
	u := NewURAM(k, testURAMConfig())
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds URAM access did not panic")
		}
	}()
	u.ReadAccess(uint64(u.Size())-100, 200, pcie.Payload{}, func() {})
}

func TestURAMContentRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	u := NewURAM(k, testURAMConfig())
	want := []byte("streaming network to storage")
	got := make([]byte, len(want))
	k.Spawn("p", func(p *sim.Proc) {
		writeB(p, u, 4096, int64(len(want)), want)
		readB(p, u, 4096, int64(len(got)), got)
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
					writeB(p, d, addr, 4096, nil)
				} else {
					readB(p, d, addr, 4096, nil)
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
				readB(p, d, addr, 512, nil)
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
		readB(p, d, 0, 4096, nil)
		writeB(p, d, 4096, 4096, nil)
		readB(p, d, 8192, 4096, nil)
	})
	k.Run(0)
	if d.Accesses() != 3 {
		t.Fatalf("Accesses = %d, want 3", d.Accesses())
	}
	if d.Turnarounds() != 2 {
		t.Fatalf("Turnarounds = %d, want 2 (R→W, W→R)", d.Turnarounds())
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
			readB(p, h, base, per, nil)
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
			readB(p, h, 0, 8*sim.MiB, nil)
			readDone = p.Now()
		})
		if concurrent {
			k.Spawn("w", func(p *sim.Proc) {
				writeB(p, h, uint64(1*sim.GiB), 8*sim.MiB, nil)
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
		writeB(p, h, 12345, int64(len(want)), want)
		readB(p, h, 12345, int64(len(got)), got)
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
