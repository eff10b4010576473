package streamer_test

import (
	"bytes"
	"testing"

	"snacc/internal/nvme"
	"snacc/internal/obs"
	"snacc/internal/pcie"
	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
)

const ssdBAR = 0x10_0000_0000

// rig assembles platform + SSD + one streamer and runs the init sequence.
func rig(t *testing.T, v streamer.Variant, functional bool, mut func(*streamer.Config)) (*sim.Kernel, *streamer.Client, *nvme.Device) {
	t.Helper()
	k := sim.NewKernel()
	pl := tapasco.NewPlatform(k, tapasco.DefaultU280())
	devCfg := nvme.DefaultConfig("ssd0", ssdBAR)
	devCfg.Functional = functional
	dev := nvme.New(k, pl.Fabric, devCfg)
	stCfg := streamer.DefaultConfig("snacc0", 0, v)
	stCfg.Functional = functional
	if mut != nil {
		mut(&stCfg)
	}
	st := pl.AddStreamer(stCfg)
	drv := tapasco.NewDriver(pl, "ssd0", ssdBAR)
	initDone := false
	k.Spawn("init", func(p *sim.Proc) {
		if err := drv.InitController(p); err != nil {
			t.Errorf("InitController: %v", err)
			return
		}
		if err := drv.AttachStreamer(p, st, 1); err != nil {
			t.Errorf("AttachStreamer: %v", err)
			return
		}
		initDone = true
	})
	k.Run(0)
	if !initDone {
		t.Fatal("initialization did not complete")
	}
	return k, streamer.NewClient(st), dev
}

func variants() []streamer.Variant {
	return []streamer.Variant{streamer.URAM, streamer.OnboardDRAM, streamer.HostDRAM}
}

func TestWriteReadRoundTripAllVariants(t *testing.T) {
	for _, v := range variants() {
		t.Run(v.String(), func(t *testing.T) {
			k, c, dev := rig(t, v, true, nil)
			want := make([]byte, 3*sim.MiB+8192) // spans several 1 MiB pieces
			for i := range want {
				want[i] = byte(i*7 + int(v))
			}
			done := false
			k.Spawn("pe", func(p *sim.Proc) {
				c.Write(p, 4096, int64(len(want)), want)
				got := c.Read(p, 4096, int64(len(want)))
				if !bytes.Equal(got, want) {
					t.Error("streamed data corrupted through NVMe round trip")
				}
				done = true
			})
			k.Run(0)
			if !done {
				t.Fatal("PE never finished")
			}
			if dev.Errors() != 0 {
				t.Fatalf("device errors: %d", dev.Errors())
			}
			// 3 MiB + 8 KiB → 4 write pieces + 4 read pieces.
			if got := c.Streamer().CommandsSubmitted(); got != 8 {
				t.Fatalf("commands submitted = %d, want 8", got)
			}
			if c.Streamer().CommandsRetired() != 8 {
				t.Fatalf("commands retired = %d, want 8", c.Streamer().CommandsRetired())
			}
		})
	}
}

// TestEmptyWrite: a zero-length write is framed as a bare header with
// TLAST, which the Streamer acknowledges without waiting for data, and the
// write stream stays framed for the next request.
func TestEmptyWrite(t *testing.T) {
	k, c, _ := rig(t, streamer.URAM, true, nil)
	want := make([]byte, 4096)
	for i := range want {
		want[i] = byte(i*13 + 5)
	}
	done := false
	k.Spawn("pe", func(p *sim.Proc) {
		if err := c.WriteErr(p, 0, 0, nil); err != nil {
			t.Errorf("empty write: %v", err)
		}
		if err := c.WriteErr(p, 8192, int64(len(want)), want); err != nil {
			t.Errorf("write after empty write: %v", err)
		}
		got, err := c.ReadErr(p, 8192, int64(len(want)))
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("round trip after empty write: err=%v, bytes equal=%v", err, bytes.Equal(got, want))
		}
		done = true
	})
	k.Run(0)
	if !done {
		t.Fatal("PE never finished")
	}
	if got := c.Streamer().CommandsSubmitted(); got != 2 {
		t.Errorf("commands submitted = %d, want 2 (the empty write issues none)", got)
	}
}

func TestSmallUnalignedLengths(t *testing.T) {
	// 512-byte LBA granularity, sub-page and sub-piece sizes.
	k, c, _ := rig(t, streamer.URAM, true, nil)
	sizes := []int64{512, 4096, 8192, 12288, 65536}
	done := false
	k.Spawn("pe", func(p *sim.Proc) {
		addr := uint64(0)
		for _, n := range sizes {
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(int64(i) + n)
			}
			c.Write(p, addr, n, data)
			got := c.Read(p, addr, n)
			if !bytes.Equal(got, data) {
				t.Errorf("size %d round trip failed", n)
			}
			addr += uint64(n)
		}
		done = true
	})
	k.Run(0)
	if !done {
		t.Fatal("PE never finished")
	}
}

func TestReadOfUnwrittenReturnsZeros(t *testing.T) {
	k, c, _ := rig(t, streamer.URAM, true, nil)
	k.Spawn("pe", func(p *sim.Proc) {
		got := c.Read(p, uint64(512*sim.MiB), 8192)
		for _, b := range got {
			if b != 0 {
				t.Fatal("unwritten LBAs must read back as zeros")
				return
			}
		}
	})
	k.Run(0)
}

func TestPipelinedReadsStayOrdered(t *testing.T) {
	// Issue several reads back to back; data must come back in command
	// order with correct TLAST delimiters (in-order retirement).
	k, c, _ := rig(t, streamer.URAM, true, nil)
	const n = 64 * 1024
	k.Spawn("pe", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			data := make([]byte, n)
			for j := range data {
				data[j] = byte(i)
			}
			c.Write(p, uint64(i*n), n, data)
		}
		for i := 0; i < 8; i++ {
			c.ReadAsync(p, uint64(i*n), n)
		}
		for i := 0; i < 8; i++ {
			total, data := c.ConsumeRead(p)
			if total != n {
				t.Errorf("read %d returned %d bytes", i, total)
			}
			if data[0] != byte(i) || data[n-1] != byte(i) {
				t.Errorf("read %d returned data for a different command", i)
			}
		}
	})
	k.Run(0)
}

func TestInterleavedReadsAndWrites(t *testing.T) {
	// The command queue is shared between reads and writes (§4.2).
	k, c, _ := rig(t, streamer.OnboardDRAM, true, nil)
	k.Spawn("pe", func(p *sim.Proc) {
		a := []byte("first block of data to persist..xx.............................")
		b := make([]byte, 512)
		copy(b, a)
		c.Write(p, 0, 512, b)
		got := c.Read(p, 0, 512)
		c.Write(p, 512, 512, got)
		got2 := c.Read(p, 512, 512)
		if !bytes.Equal(got2, b) {
			t.Error("interleaved read/write corrupted data")
		}
	})
	k.Run(0)
}

func TestInOrderRetirementWindow(t *testing.T) {
	// With QueueDepth in-flight commands, a new command must wait for the
	// head to retire: total submitted never exceeds retired + depth.
	k, c, _ := rig(t, streamer.URAM, false, func(cfg *streamer.Config) {
		cfg.QueueDepth = 4
	})
	k.Spawn("pe", func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			c.ReadAsync(p, uint64(i*4096), 4096)
		}
		for i := 0; i < 16; i++ {
			c.ConsumeRead(p)
		}
		st := c.Streamer()
		if st.CommandsSubmitted() != 16 || st.CommandsRetired() != 16 {
			t.Errorf("submitted/retired = %d/%d, want 16/16",
				st.CommandsSubmitted(), st.CommandsRetired())
		}
	})
	k.Run(0)
}

func TestOutOfOrderVariantCompletes(t *testing.T) {
	k, c, _ := rig(t, streamer.OnboardDRAM, true, func(cfg *streamer.Config) {
		cfg.OutOfOrder = true
	})
	k.Spawn("pe", func(p *sim.Proc) {
		want := make([]byte, 2*sim.MiB)
		for i := range want {
			want[i] = byte(i % 251)
		}
		c.Write(p, 0, int64(len(want)), want)
		got := c.Read(p, 0, int64(len(want)))
		if !bytes.Equal(got, want) {
			t.Error("out-of-order variant corrupted data")
		}
	})
	k.Run(0)
}

func TestPRPListSynthesisExercised(t *testing.T) {
	// A >8 KiB command forces a PRP list; the device must have read the
	// list from the streamer's PRP window (on-the-fly computation).
	for _, v := range variants() {
		t.Run(v.String(), func(t *testing.T) {
			k, c, dev := rig(t, v, true, nil)
			k.Spawn("pe", func(p *sim.Proc) {
				data := make([]byte, sim.MiB)
				for i := range data {
					data[i] = byte(i / 4096)
				}
				c.Write(p, 0, sim.MiB, data)
				got := c.Read(p, 0, sim.MiB)
				if !bytes.Equal(got, data) {
					t.Error("PRP-list transfer corrupted data")
				}
			})
			k.Run(0)
			if dev.Errors() != 0 {
				t.Fatalf("device rejected PRP-list command: %d errors", dev.Errors())
			}
		})
	}
}

func TestMultipleStreamersShareCard(t *testing.T) {
	// Two streamers (e.g. toward two SSDs) must coexist in one BAR.
	k := sim.NewKernel()
	pl := tapasco.NewPlatform(k, tapasco.DefaultU280())
	devA := nvme.DefaultConfig("ssdA", ssdBAR)
	devB := nvme.DefaultConfig("ssdB", ssdBAR+0x1000_0000)
	devA.Functional, devB.Functional = true, true
	nvme.New(k, pl.Fabric, devA)
	nvme.New(k, pl.Fabric, devB)
	cfgA := streamer.DefaultConfig("snaccA", 0, streamer.URAM)
	cfgA.Functional = true
	cfgB := streamer.DefaultConfig("snaccB", 0, streamer.URAM)
	cfgB.Functional = true
	stA := pl.AddStreamer(cfgA)
	stB := pl.AddStreamer(cfgB)
	drvA := tapasco.NewDriver(pl, "ssdA", ssdBAR)
	drvB := tapasco.NewDriver(pl, "ssdB", ssdBAR+0x1000_0000)
	ok := false
	k.Spawn("init", func(p *sim.Proc) {
		if err := drvA.InitController(p); err != nil {
			t.Errorf("A init: %v", err)
			return
		}
		if err := drvB.InitController(p); err != nil {
			t.Errorf("B init: %v", err)
			return
		}
		if err := drvA.AttachStreamer(p, stA, 1); err != nil {
			t.Errorf("A attach: %v", err)
			return
		}
		if err := drvB.AttachStreamer(p, stB, 1); err != nil {
			t.Errorf("B attach: %v", err)
			return
		}
		ca, cb := streamer.NewClient(stA), streamer.NewClient(stB)
		ca.Write(p, 0, 8192, bytes.Repeat([]byte{0xAA}, 8192))
		cb.Write(p, 0, 8192, bytes.Repeat([]byte{0xBB}, 8192))
		gotA := ca.Read(p, 0, 8192)
		gotB := cb.Read(p, 0, 8192)
		if gotA[0] != 0xAA || gotB[0] != 0xBB {
			t.Error("streamers crossed data")
		}
		ok = true
	})
	k.Run(0)
	if !ok {
		t.Fatal("multi-streamer init failed")
	}
}

func TestBufferWaveInvariant(t *testing.T) {
	// §4.2: "We only request as much data as can fit in our available data
	// buffer." A read four times the URAM buffer must proceed in waves with
	// staging occupancy bounded by the 4 MiB capacity — and actually use
	// most of it.
	k, c, _ := rig(t, streamer.URAM, false, nil)
	k.Spawn("pe", func(p *sim.Proc) {
		c.ReadAsync(p, 0, 16*sim.MiB)
		c.ConsumeRead(p)
	})
	k.Run(0)
	hw, _ := c.Streamer().BufferHighWater()
	if hw > 4*sim.MiB {
		t.Fatalf("staging high water %d exceeds the 4 MiB buffer", hw)
	}
	if hw < 2*sim.MiB {
		t.Fatalf("staging high water %d; the Streamer should keep the buffer busy", hw)
	}
	if got := c.Streamer().BytesToPE(); got != 16*sim.MiB {
		t.Fatalf("delivered %d of 16 MiB", got)
	}
}

func TestSeparateBuffersForDRAMVariant(t *testing.T) {
	// §4.3: the DRAM variants separate read and write channels into
	// distinct buffers — concurrent traffic must account independently.
	k, c, _ := rig(t, streamer.OnboardDRAM, false, nil)
	k.Spawn("w", func(p *sim.Proc) { c.Write(p, 0, 8*sim.MiB, nil) })
	k.Spawn("r", func(p *sim.Proc) {
		p.Sleep(sim.Millisecond)
		c.ReadAsync(p, 0, 8*sim.MiB)
		c.ConsumeRead(p)
	})
	k.Run(0)
	rd, wr := c.Streamer().BufferHighWater()
	if rd == 0 || wr == 0 {
		t.Fatalf("high-water marks %d/%d; both buffers should have been used", rd, wr)
	}
	if rd > 64*sim.MiB || wr > 64*sim.MiB {
		t.Fatalf("buffer overrun: read %d write %d", rd, wr)
	}
}

// TestCommandLatencyHistograms checks the device-level view beneath the
// PE-level Figure 4c numbers: each command's submit→retire latency, taken
// from its span.
func TestCommandLatencyHistograms(t *testing.T) {
	k, c, _ := rig(t, streamer.URAM, false, nil)
	tr := obs.NewTracer(0)
	c.Streamer().SetTracer(tr)
	k.Spawn("pe", func(p *sim.Proc) {
		c.Write(p, 0, 64*1024, nil)
		c.ReadAsync(p, 0, 64*1024)
		c.ConsumeRead(p)
	})
	k.Run(0)
	spans := tr.Spans()
	if len(spans) != 2 || !spans[0].Write || spans[1].Write {
		t.Fatalf("want one write span then one read span, got %+v", spans)
	}
	lat := func(sp obs.Span) sim.Time { return sp.Stages[obs.StageRetired] - sp.Stages[obs.StageSubmitted] }
	wr, rd := lat(spans[0]), lat(spans[1])
	// The NVMe read must include a NAND tR (>15us); the 64 KiB write
	// completes in the SSD buffer after its P2P fetch — faster than the
	// read, but not free.
	if rd < 15*sim.Microsecond {
		t.Errorf("read command latency %v below NAND tR", rd)
	}
	if wr <= 0 || wr >= rd {
		t.Errorf("write latency %v should be positive and undercut read latency %v (no tR)", wr, rd)
	}
}

func TestConfigValidationPanics(t *testing.T) {
	cases := []func(*streamer.Config){
		func(c *streamer.Config) { c.QueueDepth = 1 },
		func(c *streamer.Config) { c.MaxCmdBytes = 1000 },
		func(c *streamer.Config) { c.ReadBufBytes = 8 * sim.MiB }, // URAM must be 4 MiB shared
	}
	for i, mut := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad config %d accepted", i)
				}
			}()
			k := sim.NewKernel()
			pl := tapasco.NewPlatform(k, tapasco.DefaultU280())
			cfg := streamer.DefaultConfig("bad", 0, streamer.URAM)
			mut(&cfg)
			pl.AddStreamer(cfg)
		}()
	}
}

// TestRoundTripMovesPagesByReference pins the page-payload mechanism: a
// functional 4 MiB write and read-back through URAM moves its payload
// between the staging URAM and the NAND media by handing over page
// references, not by copying. Each 4 KiB page crosses six store
// boundaries (staging install and share on the write, media install, media
// share, staging install and share on the read); at least 90% of those
// moves must be by reference, so a silent fallback to copying fails here
// rather than only running slower.
func TestRoundTripMovesPagesByReference(t *testing.T) {
	k, c, dev := rig(t, streamer.URAM, true, nil)
	want := make([]byte, 4*sim.MiB)
	for i := range want {
		want[i] = byte(i*13 + i>>12)
	}
	k.Spawn("pe", func(p *sim.Proc) {
		c.Write(p, 0, int64(len(want)), want)
		if got := c.Read(p, 0, int64(len(want))); !bytes.Equal(got, want) {
			t.Error("round trip corrupted the payload")
		}
	})
	k.Run(0)
	var byRef, copied int64
	for _, st := range []*pcie.SparseMem{c.Streamer().Resources().Local.Store(), dev.NAND().Store()} {
		r, cp := st.PageMoves()
		byRef, copied = byRef+r, copied+cp
	}
	pages := int64(len(want) / pcie.PageSize)
	if byRef < 6*pages*9/10 || byRef*10 < (byRef+copied)*9 {
		t.Fatalf("moved %d pages by reference and copied %d, want >= 90%% of %d page moves by reference",
			byRef, copied, 6*pages)
	}
}

// TestStreamerDoorbellCounters pins the doorbells-per-command accounting the
// queue sweep reports: exactly two doorbell writes per command for the
// uncoalesced protocol (one SQ tail ring plus one CQ head update), fewer
// once DoorbellBatch coalesces both sides. Random 4 KiB reads keep many
// commands outstanding, so a batch fills before its flush timer fires.
func TestStreamerDoorbellCounters(t *testing.T) {
	count := func(batch int) (doorbells, commands int64) {
		k, c, _ := rig(t, streamer.URAM, false, func(cfg *streamer.Config) { cfg.DoorbellBatch = batch })
		defer k.Close()
		st := c.Streamer()
		db0, cmd0 := st.DoorbellWrites(), st.CommandsSubmitted()
		k.Spawn("pe", func(p *sim.Proc) { streamer.RandRead(p, c, 64*sim.GiB, sim.MiB, 4096, 42) })
		k.Run(0)
		return st.DoorbellWrites() - db0, st.CommandsSubmitted() - cmd0
	}
	db, cmds := count(1)
	if cmds == 0 || db != 2*cmds {
		t.Fatalf("DoorbellBatch 1: %d doorbells for %d commands, want exactly 2 per command", db, cmds)
	}
	db8, cmds8 := count(8)
	if cmds8 != cmds {
		t.Fatalf("DoorbellBatch 8 submitted %d commands, want %d", cmds8, cmds)
	}
	if db8 >= db {
		t.Fatalf("DoorbellBatch 8: %d doorbells, want fewer than the uncoalesced %d", db8, db)
	}
	t.Logf("%d commands: %d doorbells uncoalesced, %d at batch 8", cmds, db, db8)
}
