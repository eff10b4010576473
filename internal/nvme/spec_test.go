package nvme

import (
	"bytes"
	"testing"
	"testing/quick"

	"snacc/internal/pcie"
	"snacc/internal/sim"
)

func TestCommandRoundTrip(t *testing.T) {
	f := func(op uint8, cid uint16, nsid uint32, prp1, prp2 uint64, d10, d11, d12 uint32) bool {
		in := Command{
			Opcode: op, CID: cid, NSID: nsid,
			PRP1: prp1, PRP2: prp2,
			CDW10: d10, CDW11: d11, CDW12: d12,
		}
		out, err := UnmarshalCommand(in.Marshal())
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCommandSLBANLBHelpers(t *testing.T) {
	var c Command
	c.SetSLBA(0x1_2345_6789)
	if c.SLBA() != 0x1_2345_6789 {
		t.Fatalf("SLBA round trip = %#x", c.SLBA())
	}
	c.SetNLB(2047)
	if c.NLB() != 2047 {
		t.Fatalf("NLB round trip = %d", c.NLB())
	}
	// NLB must not clobber upper CDW12 bits.
	c.CDW12 |= 0x8000_0000
	c.SetNLB(7)
	if c.CDW12>>16 != 0x8000 || c.NLB() != 7 {
		t.Fatalf("SetNLB clobbered CDW12: %#x", c.CDW12)
	}
}

func TestCompletionRoundTrip(t *testing.T) {
	f := func(dw0 uint32, sqh, sqid, cid uint16, phase bool, status uint16) bool {
		in := Completion{
			DW0: dw0, SQHead: sqh, SQID: sqid, CID: cid,
			Phase: phase, Status: status & 0x7FFF,
		}
		out, err := UnmarshalCompletion(cqeBytes(in))
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalShortBuffers(t *testing.T) {
	if _, err := UnmarshalCommand(make([]byte, 63)); err == nil {
		t.Error("short SQE accepted")
	}
	if _, err := UnmarshalCompletion(make([]byte, 15)); err == nil {
		t.Error("short CQE accepted")
	}
}

func TestCoalesceExtents(t *testing.T) {
	in := []extent{
		{addr: 0x1000, len: 4096},
		{addr: 0x2000, len: 4096}, // adjacent
		{addr: 0x9000, len: 4096}, // gap
		{addr: 0xA000, len: 1024}, // adjacent
	}
	out := coalesce(in)
	if len(out) != 2 {
		t.Fatalf("coalesced to %d runs, want 2: %+v", len(out), out)
	}
	if out[0].addr != 0x1000 || out[0].len != 8192 {
		t.Fatalf("run0 = %+v", out[0])
	}
	if out[1].addr != 0x9000 || out[1].len != 5120 {
		t.Fatalf("run1 = %+v", out[1])
	}
}

func TestNANDSeqReadBandwidth(t *testing.T) {
	k := sim.NewKernel()
	nd := NewNAND(k, DefaultNANDConfig())
	// Issue all commands up front (queue depth > 1, as every real consumer
	// of the device does) so the tR latency pipelines with streaming.
	const total = 256 * sim.MiB
	var done sim.Time
	outstanding := int(total / sim.MiB)
	for i := 0; i < int(total/sim.MiB); i++ {
		nd.Read(uint64(int64(i)*sim.MiB), sim.MiB, pcie.Payload{}, func() {
			outstanding--
			if outstanding == 0 {
				done = k.Now()
			}
		})
	}
	k.Run(0)
	bw := float64(total) / done.Seconds()
	if bw < 6.5e9 || bw > 7.0e9 {
		t.Fatalf("NAND seq read BW = %.2f GB/s, want ~6.9", bw/1e9)
	}
}

func TestNANDDieConflictsQueue(t *testing.T) {
	// Two reads hitting the same die must serialize; different dies overlap.
	k := sim.NewKernel()
	cfg := DefaultNANDConfig()
	cfg.ReadJitterFrac = 0
	nd := NewNAND(k, cfg)
	var sameDone, diffDone sim.Time
	n := 0
	for i := 0; i < 2; i++ {
		nd.Read(0, 4096, pcie.Payload{}, func() {
			n++
			if n == 2 {
				sameDone = k.Now()
			}
		})
	}
	k.Run(0)

	k2 := sim.NewKernel()
	nd2 := NewNAND(k2, cfg)
	m := 0
	nd2.Read(0, 4096, pcie.Payload{}, func() { m++ })
	nd2.Read(uint64(cfg.StripeBytes), 4096, pcie.Payload{}, func() {
		m++
		diffDone = k2.Now()
	})
	k2.Run(0)
	if sameDone <= diffDone {
		t.Fatalf("same-die reads (%v) must serialize vs different dies (%v)", sameDone, diffDone)
	}
}

func TestNANDProgramEpochAlternates(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultNANDConfig()
	cfg.EpochBytes = 4 * sim.MiB
	cfg.WriteBufferBytes = 64 * sim.MiB
	nd := NewNAND(k, cfg)
	var flips int
	nd.OnEpochChange = func(slow bool) { flips++ }
	for i := 0; i < 16; i++ {
		off := uint64(int64(i) * sim.MiB)
		nd.ReserveBuffer(sim.MiB, func() { nd.Program(off, sim.MiB, pcie.Payload{}) })
	}
	k.Run(0)
	// 16 MiB programmed with 4 MiB epochs: epoch flips at 4, 8, 12, 16 MiB.
	if flips < 3 {
		t.Fatalf("epoch flips = %d, want >= 3", flips)
	}
}

func TestNANDProgramRatesDiffer(t *testing.T) {
	measure := func(slowFirst bool) sim.Time {
		k := sim.NewKernel()
		cfg := DefaultNANDConfig()
		cfg.EpochBytes = 0 // no flipping
		nd := NewNAND(k, cfg)
		nd.epochSlow = slowFirst
		nd.ReserveBuffer(32*sim.MiB, func() { nd.Program(0, 32*sim.MiB, pcie.Payload{}) })
		k.Run(0) // the program's completion is the last event
		return k.Now()
	}
	fast, slow := measure(false), measure(true)
	if slow <= fast {
		t.Fatalf("slow epoch program (%v) must be slower than fast (%v)", slow, fast)
	}
}

func TestNANDWriteBufferBackpressure(t *testing.T) {
	k := sim.NewKernel()
	cfg := DefaultNANDConfig()
	cfg.WriteBufferBytes = 2 * sim.MiB
	nd := NewNAND(k, cfg)
	var order []int
	// First two reservations fill the buffer; the third waits for program
	// completion to release space.
	for i := 0; i < 3; i++ {
		i := i
		nd.ReserveBuffer(sim.MiB, func() {
			order = append(order, i)
			nd.Program(uint64(int64(i)*sim.MiB), sim.MiB, pcie.Payload{})
		})
	}
	if len(order) != 2 {
		t.Fatalf("immediately granted = %d, want 2", len(order))
	}
	k.Run(0)
	if len(order) != 3 || order[2] != 2 {
		t.Fatalf("order = %v, want third grant after drain", order)
	}
}

func TestNANDContentPersists(t *testing.T) {
	k := sim.NewKernel()
	nd := NewNAND(k, DefaultNANDConfig())
	data := []byte("hello flash")
	nd.ReserveBuffer(int64(len(data)), func() { nd.Program(12345, int64(len(data)), pcie.Bytes(data)) })
	got := make([]byte, len(data))
	done := false
	nd.Read(12345, int64(len(got)), pcie.Bytes(got), func() { done = true })
	k.Run(0)
	if !done || string(got) != string(data) {
		t.Fatalf("read back %q, want %q", got, data)
	}
}

// TestNANDSharesPagesCopyOnWrite pins the controller's snapshot points on
// page payloads: Program installs a staged payload's pages in the media by
// reference, after which overwriting the staging page leaves the media
// intact and overwriting the media leaves the staging page intact; and a
// Read shares the media at issue, so a program that lands before the read
// finishes does not reach it.
func TestNANDSharesPagesCopyOnWrite(t *testing.T) {
	k := sim.NewKernel()
	nd := NewNAND(k, DefaultNANDConfig())
	const off, n = 1 << 20, 4 * PageSize
	pattern := func(seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i*3+i>>12)
		}
		return b
	}
	media := func() []byte {
		b := make([]byte, n)
		nd.Store().ReadBytes(off, b)
		return b
	}
	staging := pcie.NewSparseMem()
	old := pattern(1)
	staging.WriteBytes(0, old)
	dma := pcie.NewPages(0, n)
	staging.Share(0, dma)
	nd.ReserveBuffer(n, func() { nd.Program(off, n, dma) })
	dma.Release()
	if byRef, copied := nd.Store().PageMoves(); byRef != n/PageSize || copied != 0 {
		t.Fatalf("Program moved %d pages by reference and copied %d, want %d and 0", byRef, copied, n/PageSize)
	}

	staged := pattern(2)
	staging.WriteBytes(0, staged[:PageSize])                       // a whole shared page
	staging.WriteBytes(PageSize+9, staged[PageSize+9:PageSize+99]) // part of one
	if !bytes.Equal(media(), old) {
		t.Fatal("overwriting the staging memory reached the media")
	}
	wantStaged := bytes.Clone(old)
	copy(wantStaged, staged[:PageSize])
	copy(wantStaged[PageSize+9:], staged[PageSize+9:PageSize+99])
	nd.Store().WriteBytes(off+2*PageSize+5, []byte{0xEE, 0xEE})
	got := make([]byte, n)
	staging.ReadBytes(0, got)
	if !bytes.Equal(got, wantStaged) {
		t.Fatal("overwriting the media reached the staging memory")
	}

	before := media()
	rd := pcie.NewPages(0, n)
	done := false
	nd.Read(off, n, rd, func() { done = true })
	nd.ReserveBuffer(n, func() { nd.Program(off, n, pcie.Bytes(pattern(3))) })
	k.Run(0)
	rd.ReadAt(got, 0)
	if !done || !bytes.Equal(got, before) {
		t.Fatal("a program after the read's issue reached the read's data")
	}
	rd.Release()
}

// cqeBytes encodes c into a CQE the way the controller posts one.
func cqeBytes(c Completion) []byte {
	b := make([]byte, CQESize)
	c.MarshalInto(b)
	return b
}
