package axis

import (
	"bytes"
	"testing"
	"testing/quick"

	"snacc/internal/pcie"
	"snacc/internal/sim"
)

func TestStreamBandwidth(t *testing.T) {
	// 64 B × 300 MHz = 19.2 GB/s.
	k := sim.NewKernel()
	s := New(k, "s", DefaultConfig())
	const total = 16 * sim.MiB
	var done sim.Time
	k.Spawn("tx", func(p *sim.Proc) {
		for sent := int64(0); sent < total; sent += 256 * sim.KiB {
			s.Send(p, Packet{Bytes: 256 * sim.KiB})
		}
	})
	k.Spawn("rx", func(p *sim.Proc) {
		for got := int64(0); got < total; {
			got += s.Recv(p).Bytes
		}
		done = p.Now()
	})
	k.Run(0)
	bw := float64(total) / done.Seconds()
	if bw < 18.5e9 || bw > 19.5e9 {
		t.Fatalf("stream BW = %.2f GB/s, want ~19.2", bw/1e9)
	}
}

func TestStreamBackpressure(t *testing.T) {
	// A slow consumer must throttle the producer through the FIFO depth.
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.DepthBytes = 8 * sim.KiB
	s := New(k, "s", cfg)
	var prodDone sim.Time
	k.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			s.Send(p, Packet{Bytes: 4096})
		}
		prodDone = p.Now()
	})
	k.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			p.Sleep(10 * sim.Microsecond)
			s.Recv(p)
		}
	})
	k.Run(0)
	// 64 packets at the consumer's 10us pace, minus the FIFO's 2-packet slack.
	if prodDone < 500*sim.Microsecond {
		t.Fatalf("producer finished at %v; backpressure not applied", prodDone)
	}
}

func TestStreamTokenCostsOneBeat(t *testing.T) {
	k := sim.NewKernel()
	s := New(k, "s", DefaultConfig())
	var got Packet
	k.Spawn("tx", func(p *sim.Proc) { s.Send(p, Packet{Last: true, Meta: "token"}) })
	k.Spawn("rx", func(p *sim.Proc) { got = s.Recv(p) })
	k.Run(0)
	if !got.Last || got.Meta != "token" {
		t.Fatalf("token packet mangled: %+v", got)
	}
}

func TestStreamDataAndMetaIntegrity(t *testing.T) {
	k := sim.NewKernel()
	s := New(k, "s", DefaultConfig())
	want := []byte("axi stream payload")
	k.Spawn("tx", func(p *sim.Proc) {
		s.Send(p, Packet{Bytes: int64(len(want)), Data: pcie.Bytes(want), Meta: 7})
	})
	var got Packet
	k.Spawn("rx", func(p *sim.Proc) { got = s.Recv(p) })
	k.Run(0)
	if !bytes.Equal(got.Data.Bytes(), want) || got.Meta != 7 {
		t.Fatal("payload or metadata corrupted")
	}
}

func TestStreamOrderingProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 64 {
			return true
		}
		k := sim.NewKernel()
		s := New(k, "s", DefaultConfig())
		k.Spawn("tx", func(p *sim.Proc) {
			for i, sz := range sizes {
				s.Send(p, Packet{Bytes: int64(sz) + 1, Meta: i})
			}
		})
		ok := true
		k.Spawn("rx", func(p *sim.Proc) {
			for i := range sizes {
				pkt := s.Recv(p)
				if pkt.Meta != i || pkt.Bytes != int64(sizes[i])+1 {
					ok = false
				}
			}
		})
		k.Run(0)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStreamTryRecvAndPending(t *testing.T) {
	k := sim.NewKernel()
	s := New(k, "s", DefaultConfig())
	if _, ok := s.TryRecv(); ok {
		t.Fatal("TryRecv on empty stream succeeded")
	}
	k.Spawn("tx", func(p *sim.Proc) {
		s.Send(p, Packet{Bytes: 100})
		s.Send(p, Packet{Bytes: 200})
	})
	k.Run(0)
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	if pkt, ok := s.TryRecv(); !ok || pkt.Bytes != 100 {
		t.Fatalf("TryRecv = %+v,%v", pkt, ok)
	}
	if s.BytesMoved() != 300 || s.Packets() != 2 {
		t.Fatalf("stats: %d bytes, %d packets", s.BytesMoved(), s.Packets())
	}
}

func TestStreamOversizePacketTricklesThrough(t *testing.T) {
	// A packet larger than the FIFO must still pass (beat-wise in hardware).
	k := sim.NewKernel()
	cfg := DefaultConfig()
	cfg.DepthBytes = 4 * sim.KiB
	s := New(k, "s", cfg)
	var got int64
	k.Spawn("tx", func(p *sim.Proc) { s.Send(p, Packet{Bytes: 64 * sim.KiB}) })
	k.Spawn("rx", func(p *sim.Proc) { got = s.Recv(p).Bytes })
	k.Run(0)
	if got != 64*sim.KiB {
		t.Fatalf("got %d bytes", got)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid config did not panic")
		}
	}()
	New(sim.NewKernel(), "bad", Config{WidthBytes: 0, ClockHz: 1, DepthBytes: 1})
}
