package sim

import (
	"testing"
	"testing/quick"
)

func TestChanBufferedFIFO(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, 4)
	var got []int
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < 8; i++ {
			c.Put(p, i)
		}
	})
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 8; i++ {
			p.Sleep(1)
			got = append(got, c.Get(p))
		}
	})
	k.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want 0..7 in order", got)
		}
	}
}

func TestChanProducerBlocksWhenFull(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, 2)
	var thirdPutAt Time
	k.Spawn("producer", func(p *Proc) {
		c.Put(p, 0)
		c.Put(p, 1)
		c.Put(p, 2) // blocks until consumer takes one at t=50
		thirdPutAt = p.Now()
	})
	k.Spawn("consumer", func(p *Proc) {
		p.Sleep(50)
		c.Get(p)
	})
	k.Run(0)
	if thirdPutAt != 50 {
		t.Fatalf("third Put unblocked at %v, want 50", thirdPutAt)
	}
}

func TestChanConsumerBlocksWhenEmpty(t *testing.T) {
	k := NewKernel()
	c := NewChan[string](k, 1)
	var got string
	var gotAt Time
	k.Spawn("consumer", func(p *Proc) {
		got = c.Get(p)
		gotAt = p.Now()
	})
	k.Spawn("producer", func(p *Proc) {
		p.Sleep(30)
		c.Put(p, "x")
	})
	k.Run(0)
	if got != "x" || gotAt != 30 {
		t.Fatalf("Get = %q at %v, want \"x\" at 30", got, gotAt)
	}
}

func TestChanRendezvous(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, 0)
	var putDone, getDone Time
	k.Spawn("producer", func(p *Proc) {
		c.Put(p, 7)
		putDone = p.Now()
	})
	k.Spawn("consumer", func(p *Proc) {
		p.Sleep(20)
		if v := c.Get(p); v != 7 {
			t.Errorf("Get = %d, want 7", v)
		}
		getDone = p.Now()
	})
	k.Run(0)
	if putDone != 20 || getDone != 20 {
		t.Fatalf("put done %v get done %v, want both 20", putDone, getDone)
	}
}

func TestChanTryOps(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, 1)
	if _, ok := c.TryGet(); ok {
		t.Fatal("TryGet on empty channel succeeded")
	}
	if !c.TryPut(1) {
		t.Fatal("TryPut into empty channel failed")
	}
	if c.TryPut(2) {
		t.Fatal("TryPut into full channel succeeded")
	}
	if v, ok := c.Peek(); !ok || v != 1 {
		t.Fatalf("Peek = %d,%v want 1,true", v, ok)
	}
	if v, ok := c.TryGet(); !ok || v != 1 {
		t.Fatalf("TryGet = %d,%v want 1,true", v, ok)
	}
}

// Property: any interleaving of puts and gets preserves ordering — the
// channel never reorders or drops values.
func TestChanPreservesOrderProperty(t *testing.T) {
	f := func(capRaw uint8, nRaw uint8, gaps []uint8) bool {
		capacity := int(capRaw%8) + 1
		n := int(nRaw%64) + 1
		k := NewKernel()
		c := NewChan[int](k, capacity)
		var got []int
		k.Spawn("producer", func(p *Proc) {
			for i := 0; i < n; i++ {
				c.Put(p, i)
			}
		})
		k.Spawn("consumer", func(p *Proc) {
			for i := 0; i < n; i++ {
				d := Time(1)
				if len(gaps) > 0 {
					d = Time(gaps[i%len(gaps)]%5) + 1
				}
				p.Sleep(d)
				got = append(got, c.Get(p))
			}
		})
		k.Run(0)
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestResourceFIFO(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, 10)
	var order []string
	k.Spawn("big", func(p *Proc) {
		r.Acquire(p, 8)
		p.Sleep(100)
		r.Release(8)
	})
	k.Spawn("blockedBig", func(p *Proc) {
		p.Sleep(1)
		r.Acquire(p, 8) // must wait for first release
		order = append(order, "big2")
		r.Release(8)
	})
	k.Spawn("small", func(p *Proc) {
		p.Sleep(2)
		// 2 units are free, but FIFO ordering holds this behind blockedBig.
		r.Acquire(p, 2)
		order = append(order, "small")
		r.Release(2)
	})
	k.Run(0)
	if len(order) != 2 || order[0] != "big2" || order[1] != "small" {
		t.Fatalf("order = %v, want [big2 small]", order)
	}
}

func TestResourceAccounting(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, 5)
	k.Spawn("p", func(p *Proc) {
		r.Acquire(p, 3)
		if r.InUse() != 3 || r.Available() != 2 {
			t.Errorf("InUse=%d Available=%d, want 3/2", r.InUse(), r.Available())
		}
		r.Release(3)
		if r.InUse() != 0 {
			t.Errorf("InUse=%d after full release", r.InUse())
		}
	})
	k.Run(0)
}

func TestResourceOverRelease(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, 1)
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	r.Release(1)
}

func TestPipeSerialization(t *testing.T) {
	k := NewKernel()
	// 1 GB/s, 10ns latency: 1000 bytes serialize in 1us.
	pp := NewPipe(k, 1e9, 10)
	d1 := pp.Reserve(1000)
	d2 := pp.Reserve(1000)
	if d1 != 1010 {
		t.Fatalf("first delivery %v, want 1010", d1)
	}
	if d2 != 2010 {
		t.Fatalf("second delivery %v, want 2010 (serialized after first)", d2)
	}
	if pp.BytesMoved() != 2000 || pp.Transfers() != 2 {
		t.Fatalf("stats = %d bytes / %d transfers", pp.BytesMoved(), pp.Transfers())
	}
}

func TestPipeIdleGap(t *testing.T) {
	k := NewKernel()
	pp := NewPipe(k, 1e9, 0)
	k.Spawn("p", func(p *Proc) {
		pp.Transfer(p, 1000) // done at 1us
		p.Sleep(5000)        // idle gap
		pp.Transfer(p, 1000) // starts fresh at 6us, done 7us
		if p.Now() != 7000 {
			t.Errorf("second transfer done at %v, want 7000", p.Now())
		}
	})
	k.Run(0)
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		if v := r.Int63n(100); v < 0 || v >= 100 {
			t.Fatalf("Int63n out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestRandJitterBounds(t *testing.T) {
	r := NewRand(9)
	base := Time(1000)
	for i := 0; i < 10000; i++ {
		j := r.Jitter(base, 0.25)
		if j < 749 || j > 1251 {
			t.Fatalf("Jitter out of bounds: %v", j)
		}
	}
	if r.Jitter(base, 0) != base {
		t.Fatal("zero-fraction jitter must return base")
	}
}

func TestServerSerializesWork(t *testing.T) {
	k := NewKernel()
	s := NewServer(k)
	d1 := s.Occupy(100)
	d2 := s.Occupy(50)
	if d1 != 100 || d2 != 150 {
		t.Fatalf("occupancy chain = %v, %v; want 100, 150", d1, d2)
	}
	if s.BusyTime() != 150 {
		t.Fatalf("BusyTime = %v", s.BusyTime())
	}
}

func TestServerIdleGap(t *testing.T) {
	k := NewKernel()
	s := NewServer(k)
	fired := Time(0)
	s.OccupyAnd(10, func() { fired = k.Now() })
	k.Run(0)
	if fired != 10 {
		t.Fatalf("callback at %v", fired)
	}
	// After idling to t=10, a new booking starts from now, not from zero.
	k.At(10, func() {})
	k.Run(0)
	if done := s.Occupy(5); done != 15 {
		t.Fatalf("post-idle occupancy ends at %v, want 15", done)
	}
}

func TestServerUtilization(t *testing.T) {
	k := NewKernel()
	s := NewServer(k)
	k.Spawn("p", func(p *Proc) {
		p.Sleep(s.Occupy(250) - p.Now())
		p.Sleep(750)
	})
	k.Run(0)
	u := s.Utilization(0)
	if u < 0.24 || u > 0.26 {
		t.Fatalf("utilization = %.3f, want 0.25", u)
	}
}

func TestServerNegativeDuration(t *testing.T) {
	k := NewKernel()
	s := NewServer(k)
	if done := s.Occupy(-5); done != 0 {
		t.Fatalf("negative occupancy ended at %v", done)
	}
}
