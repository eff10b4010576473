package pcie

import (
	"fmt"
	"strings"
	"testing"

	"snacc/internal/sim"
)

// testFabric builds a host + device + SSD-like topology used across tests.
func testFabric(t *testing.T, cfg Config) (*sim.Kernel, *Fabric, *Port, *Port, *MemCompleter, *MemCompleter) {
	t.Helper()
	k := sim.NewKernel()
	f := NewFabric(k, cfg)
	hostMem := NewMemCompleter(k, 50e9, 90*sim.Nanosecond)
	devMem := NewMemCompleter(k, 30e9, 200*sim.Nanosecond)
	host := f.AttachHostPort("host", LinkConfig{Gen: Gen4, Lanes: 16}, hostMem)
	dev := f.AttachPort("dev", LinkConfig{Gen: Gen3, Lanes: 16}, devMem)
	f.MapRange(host, 0x0000_0000, 1<<30)     // host DRAM at 0
	f.MapRange(dev, 0x10_0000_0000, 256<<20) // device BAR
	f.IOMMU().Grant("dev", 0, 1<<30)
	f.IOMMU().Grant("host", 0x10_0000_0000, 256<<20) // host is exempt anyway
	return k, f, host, dev, hostMem, devMem
}

func TestLinkBandwidth(t *testing.T) {
	cases := []struct {
		lc   LinkConfig
		want float64
	}{
		{LinkConfig{Gen: Gen3, Lanes: 16}, 15.76e9},
		{LinkConfig{Gen: Gen4, Lanes: 4}, 7.876e9},
		{LinkConfig{Gen: Gen5, Lanes: 4}, 15.752e9},
	}
	for _, c := range cases {
		got := c.lc.BytesPerSec()
		if got < c.want*0.99 || got > c.want*1.01 {
			t.Errorf("BytesPerSec(gen%d x%d) = %.3g, want ~%.3g", c.lc.Gen, c.lc.Lanes, got, c.want)
		}
	}
}

func TestRouting(t *testing.T) {
	_, f, host, dev, _, _ := testFabric(t, DefaultConfig())
	if got := f.Route(0x100); got != host {
		t.Errorf("Route(0x100) = %v, want host", got)
	}
	if got := f.Route(0x10_0000_0000); got != dev {
		t.Errorf("Route(BAR base) = %v, want dev", got)
	}
	if got := f.Route(0x10_1000_0000); got != nil {
		t.Errorf("Route(past BAR) = %v, want nil", got)
	}
}

func TestMapRangeOverlapPanics(t *testing.T) {
	_, f, host, _, _, _ := testFabric(t, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("overlapping MapRange did not panic")
		}
	}()
	f.MapRange(host, 1<<29, 1<<30)
}

func TestPostedWriteDelivery(t *testing.T) {
	k, _, _, dev, hostMem, _ := testFabric(t, DefaultConfig())
	var doneAt sim.Time
	k.Spawn("writer", func(p *sim.Proc) {
		dev.WriteB(p, 0x1000, 4096, nil)
		doneAt = p.Now()
	})
	k.Run(0)
	if doneAt == 0 {
		t.Fatal("write never completed")
	}
	if hostMem.Writes() != 1 {
		t.Fatalf("host memory saw %d writes, want 1", hostMem.Writes())
	}
	if dev.PayloadTx() != 4096 {
		t.Fatalf("PayloadTx = %d, want 4096", dev.PayloadTx())
	}
}

func TestReadRoundTrip(t *testing.T) {
	k, _, _, dev, hostMem, _ := testFabric(t, DefaultConfig())
	var doneAt sim.Time
	k.Spawn("reader", func(p *sim.Proc) {
		dev.ReadB(p, 0x2000, 4096, nil)
		doneAt = p.Now()
	})
	k.Run(0)
	// 4096 B in 512 B requests = 8 round trips (pipelined); must take at
	// least one full RTT and deliver all payload.
	if doneAt < 500*sim.Nanosecond {
		t.Fatalf("read completed implausibly fast: %v", doneAt)
	}
	if dev.PayloadRx() != 4096 {
		t.Fatalf("PayloadRx = %d, want 4096", dev.PayloadRx())
	}
	if hostMem.Reads() != 8 {
		t.Fatalf("host memory served %d reads, want 8 (512B chunks)", hostMem.Reads())
	}
}

// Posted writes must stream at link rate regardless of latency, while
// credit-limited reads must be throughput-bound by window/RTT. This is the
// core mechanism behind Figure 4a's write-bandwidth asymmetry.
func TestWritesStreamButReadsAreLatencyBound(t *testing.T) {
	cfg := DefaultConfig()
	k, _, _, dev, _, _ := testFabric(t, cfg)
	const total = 64 << 20
	var writeDone, readDone sim.Time
	k.Spawn("writer", func(p *sim.Proc) {
		dev.WriteB(p, 0, total, nil)
		writeDone = p.Now()
	})
	k.Run(0)

	k2, _, _, dev2, _, _ := testFabric(t, cfg)
	k2.Spawn("reader", func(p *sim.Proc) {
		dev2.ReadB(p, 0, total, nil)
		readDone = k2.Now()
	})
	k2.Run(0)

	writeBW := float64(total) / writeDone.Seconds()
	readBW := float64(total) / readDone.Seconds()
	linkBW := dev.Link().BytesPerSec()
	if writeBW < 0.90*linkBW {
		t.Errorf("write streaming BW %.2f GB/s < 90%% of link %.2f GB/s", writeBW/1e9, linkBW/1e9)
	}
	if readBW >= writeBW {
		t.Errorf("read BW %.2f GB/s should be below write BW %.2f GB/s (credit/RTT bound)",
			readBW/1e9, writeBW/1e9)
	}
	// Sanity: credits*chunk/RTT should predict read BW within 2x.
	if readBW < 1e9 {
		t.Errorf("read BW %.2f GB/s implausibly low", readBW/1e9)
	}
}

// More read credits must buy more read bandwidth (until the link caps it).
func TestReadCreditsScaleBandwidth(t *testing.T) {
	measure := func(credits int) float64 {
		k := sim.NewKernel()
		f := NewFabric(k, DefaultConfig())
		hostMem := NewMemCompleter(k, 50e9, 90*sim.Nanosecond)
		f.AttachHostPort("host", LinkConfig{Gen: Gen4, Lanes: 16}, hostMem)
		dev := f.AttachPort("dev", LinkConfig{Gen: Gen3, Lanes: 16, ReadCredits: credits}, nil)
		f.MapRange(f.HostPort(), 0, 1<<30)
		f.IOMMU().Grant("dev", 0, 1<<30)
		const total = 16 << 20
		var done sim.Time
		k.Spawn("reader", func(p *sim.Proc) {
			dev.ReadB(p, 0, total, nil)
			done = p.Now()
		})
		k.Run(0)
		return float64(total) / done.Seconds()
	}
	bw4, bw16, bw64 := measure(4), measure(16), measure(64)
	if !(bw4 < bw16 && bw16 < bw64) {
		t.Errorf("read BW should scale with credits: 4→%.2f, 16→%.2f, 64→%.2f GB/s",
			bw4/1e9, bw16/1e9, bw64/1e9)
	}
}

// P2P transactions must be slower than host-directed ones at equal settings.
func TestP2PPenalty(t *testing.T) {
	cfg := DefaultConfig()
	k := sim.NewKernel()
	f := NewFabric(k, cfg)
	hostMem := NewMemCompleter(k, 50e9, 90*sim.Nanosecond)
	peerMem := NewMemCompleter(k, 50e9, 90*sim.Nanosecond)
	f.AttachHostPort("host", LinkConfig{Gen: Gen4, Lanes: 16}, hostMem)
	peer := f.AttachPort("peer", LinkConfig{Gen: Gen4, Lanes: 16}, peerMem)
	dev := f.AttachPort("dev", LinkConfig{Gen: Gen4, Lanes: 4}, nil)
	f.MapRange(f.HostPort(), 0, 1<<30)
	f.MapRange(peer, 0x10_0000_0000, 1<<30)
	f.IOMMU().Grant("dev", 0, 1<<30)
	f.IOMMU().Grant("dev", 0x10_0000_0000, 1<<30)

	const total = 8 << 20
	var hostDone, p2pDone sim.Time
	k.Spawn("bench", func(p *sim.Proc) {
		start := p.Now()
		dev.ReadB(p, 0, total, nil)
		hostDone = p.Now() - start
		start = p.Now()
		dev.ReadB(p, 0x10_0000_0000, total, nil)
		p2pDone = p.Now() - start
	})
	k.Run(0)
	if p2pDone <= hostDone {
		t.Errorf("P2P read (%v) should be slower than host read (%v)", p2pDone, hostDone)
	}
}

func TestIOMMUFault(t *testing.T) {
	k, f, _, dev, _, _ := testFabric(t, DefaultConfig())
	f.IOMMU().Revoke("dev")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("DMA without grant did not fault")
		}
		if !strings.Contains(r.(string), "IOMMU") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	// Issue from kernel context so the fault panic is recoverable here.
	dev.Write(0x1000, 4096, Payload{}, nil)
	k.Run(0)
}

// TestIOMMUGrantsFollowPort pins that a port's DMA is checked against the
// grants of its name whenever they were made: before the port attached and
// after it, and none once they are revoked, when its next access faults.
func TestIOMMUGrantsFollowPort(t *testing.T) {
	k := sim.NewKernel()
	f := NewFabric(k, DefaultConfig())
	host := f.AttachHostPort("host", LinkConfig{Gen: Gen4, Lanes: 16}, NewMemCompleter(k, 50e9, 90*sim.Nanosecond))
	f.MapRange(host, 0, 1<<30)
	f.IOMMU().Grant("dev", 0, 1<<20)
	dev := f.AttachPort("dev", LinkConfig{Gen: Gen3, Lanes: 16}, nil)
	f.IOMMU().Grant("dev", 1<<29, 1<<20)
	writes := 0
	for _, addr := range []uint64{0x1000, 1<<29 + 0x1000} {
		dev.Write(addr, 4096, Payload{}, func() { writes++ })
	}
	k.Run(0)
	if writes != 2 {
		t.Fatalf("%d of 2 granted writes completed", writes)
	}
	f.IOMMU().Revoke("dev")
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		dev.Write(0x1000, 4096, Payload{}, nil)
		k.Run(0)
	}()
	if !strings.Contains(msg, "IOMMU fault") || !strings.Contains(msg, "dev denied access to [0x1000,+0x1000)") {
		t.Fatalf("revoked write panicked with %q, want an IOMMU fault for dev", msg)
	}
}

func TestIOMMUDisabledAllowsAll(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IOMMUEnabled = false
	k, f, _, dev, _, _ := testFabric(t, cfg)
	f.IOMMU().SetEnabled(false)
	f.IOMMU().Revoke("dev")
	ok := false
	k.Spawn("writer", func(p *sim.Proc) {
		dev.WriteB(p, 0x1000, 4096, nil)
		ok = true
	})
	k.Run(0)
	if !ok {
		t.Fatal("write with disabled IOMMU did not complete")
	}
}

func TestIOMMUWindowEdges(t *testing.T) {
	m := NewIOMMU(true)
	m.Grant("d", 0x1000, 0x1000)
	if err := m.Check("d", 0x1000, 0x1000); err != nil {
		t.Errorf("exact window access rejected: %v", err)
	}
	if err := m.Check("d", 0x0fff, 1); err == nil {
		t.Error("access below window accepted")
	}
	if err := m.Check("d", 0x1fff, 2); err == nil {
		t.Error("access crossing window end accepted")
	}
	if err := m.Check("other", 0x1000, 1); err == nil {
		t.Error("unknown initiator accepted")
	}
}

func TestHostInitiatedBypassesIOMMU(t *testing.T) {
	k, _, host, _, _, _ := testFabric(t, DefaultConfig())
	// No grant for "host": host-initiated DMA must still pass.
	ok := false
	k.Spawn("host", func(p *sim.Proc) {
		host.WriteB(p, 0x10_0000_0000, 4096, nil)
		ok = true
	})
	k.Run(0)
	if !ok {
		t.Fatal("host write blocked by IOMMU")
	}
}

func TestUnmappedAddressPanics(t *testing.T) {
	k, _, _, dev, _, _ := testFabric(t, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("unmapped access did not panic")
		}
	}()
	dev.Write(0xdead_0000_0000, 64, Payload{}, nil)
	k.Run(0)
}

func TestPayloadAccountingExcludesHeaders(t *testing.T) {
	k, _, _, dev, _, _ := testFabric(t, DefaultConfig())
	k.Spawn("w", func(p *sim.Proc) {
		dev.WriteB(p, 0x0, 10000, nil)
	})
	k.Run(0)
	if dev.PayloadTx() != 10000 {
		t.Fatalf("PayloadTx = %d, want exactly 10000 (headers excluded)", dev.PayloadTx())
	}
}

func TestWireBytesOverhead(t *testing.T) {
	f := NewFabric(sim.NewKernel(), DefaultConfig())
	// 1024 payload in 512-byte chunks: 2 headers of 24 bytes.
	if got := f.wireBytes(1024, 512); got != 1024+48 {
		t.Fatalf("wireBytes(1024,512) = %d, want 1072", got)
	}
	if got := f.wireBytes(1, 512); got != 1+24 {
		t.Fatalf("wireBytes(1,512) = %d, want 25", got)
	}
	if got := f.wireBytes(0, 512); got != 0 {
		t.Fatalf("wireBytes(0,512) = %d, want 0", got)
	}
}

func TestZeroLengthOps(t *testing.T) {
	k, _, _, dev, _, _ := testFabric(t, DefaultConfig())
	calls := 0
	dev.Write(0, 0, Payload{}, func() { calls++ })
	dev.Read(0, 0, Payload{}, func() { calls++ })
	k.Run(0)
	if calls != 2 {
		t.Fatalf("zero-length op callbacks = %d, want 2", calls)
	}
}

func TestHopLatencyMath(t *testing.T) {
	// host→device: both props + root complex, no P2P/IOMMU (host exempt).
	// device→host adds IOMMU; device→device adds IOMMU + P2P penalty.
	cfg := DefaultConfig()
	k := sim.NewKernel()
	f := NewFabric(k, cfg)
	host := f.AttachHostPort("host", LinkConfig{Gen: Gen4, Lanes: 16, PropagationLatency: 50}, nil)
	a := f.AttachPort("a", LinkConfig{Gen: Gen4, Lanes: 4, PropagationLatency: 150}, nil)
	b := f.AttachPort("b", LinkConfig{Gen: Gen4, Lanes: 4, PropagationLatency: 150}, nil)
	rc := cfg.RootComplexLatency
	if got, want := f.hopLatency(host, a), sim.Time(50)+rc+150; got != want {
		t.Errorf("host→dev = %v, want %v", got, want)
	}
	if got, want := f.hopLatency(a, host), sim.Time(150)+rc+50+cfg.IOMMULatency; got != want {
		t.Errorf("dev→host = %v, want %v", got, want)
	}
	if got, want := f.hopLatency(a, b), sim.Time(150)+rc+150+cfg.P2PForwardLatency+cfg.IOMMULatency; got != want {
		t.Errorf("dev→dev = %v, want %v", got, want)
	}
}

func TestChanZeroCapPeekFromProducer(t *testing.T) {
	// Peek on a rendezvous channel must see a blocked producer's value.
	k := sim.NewKernel()
	c := sim.NewChan[int](k, 0)
	k.Spawn("p", func(p *sim.Proc) { c.Put(p, 9) })
	k.Spawn("q", func(p *sim.Proc) {
		p.Sleep(5)
		if v, ok := c.Peek(); !ok || v != 9 {
			t.Errorf("Peek = %d,%v", v, ok)
		}
		c.Get(p)
	})
	k.Run(0)
}
