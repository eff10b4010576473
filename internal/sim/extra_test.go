package sim

import (
	"math"
	"testing"
)

func TestTimeSeconds(t *testing.T) {
	if s := (2500 * Millisecond).Seconds(); math.Abs(s-2.5) > 1e-12 {
		t.Fatalf("Seconds = %v, want 2.5", s)
	}
}

func TestChanLenCapPeek(t *testing.T) {
	k := NewKernel()
	c := NewChan[int](k, 4)
	if c.Cap() != 4 || c.Len() != 0 {
		t.Fatalf("fresh chan Len/Cap = %d/%d", c.Len(), c.Cap())
	}
	if _, ok := c.Peek(); ok {
		t.Fatal("Peek on empty chan returned a value")
	}
	if !c.TryPut(7) || !c.TryPut(8) {
		t.Fatal("TryPut into empty chan failed")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if v, ok := c.Peek(); !ok || v != 7 {
		t.Fatalf("Peek = %d/%v, want 7/true", v, ok)
	}
	if c.Len() != 2 {
		t.Fatal("Peek consumed a value")
	}
	c.TryPut(9)
	c.TryPut(10)
	if c.TryPut(11) {
		t.Fatal("TryPut into full chan succeeded")
	}
}

func TestPipeBusyUntilAndReset(t *testing.T) {
	k := NewKernel()
	p := NewPipe(k, 1e9, 0)
	if p.BusyUntil() != 0 {
		t.Fatal("fresh pipe busy")
	}
	end := p.Reserve(1e6) // 1 ms at 1 GB/s
	if p.BusyUntil() != end || end != Time(Millisecond) {
		t.Fatalf("BusyUntil = %v, want %v", p.BusyUntil(), Millisecond)
	}
	if p.BytesMoved() != 1e6 {
		t.Fatalf("BytesMoved = %d", p.BytesMoved())
	}
}

func TestResourceCapacity(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, 3)
	if r.Capacity() != 3 {
		t.Fatalf("Capacity = %d", r.Capacity())
	}
}

func TestServerBusyUntil(t *testing.T) {
	k := NewKernel()
	s := NewServer(k)
	if s.BusyUntil() != 0 {
		t.Fatal("fresh server busy")
	}
	if done := s.Occupy(100); done != 100 || s.BusyUntil() != 100 {
		t.Fatalf("BusyUntil after occupy = %v, want 100", s.BusyUntil())
	}
}

func TestRandRejectsZeroAndBounds(t *testing.T) {
	r := NewRand(0) // zero seed must still produce a usable stream
	seen := map[int64]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Int63n(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Int63n out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("only %d of 10 values seen", len(seen))
	}
}
