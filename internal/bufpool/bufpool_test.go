package bufpool

import "testing"

func TestGetLengthAndClasses(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 63, 64, 65, 4096, 1 << 20, 1<<20 + 1} {
		b := Get(n)
		if len(b) != n {
			t.Fatalf("Get(%d) returned len %d", n, len(b))
		}
		if c := cap(b); c != 0 && c&(c-1) != 0 {
			t.Fatalf("Get(%d) returned non-power-of-two cap %d", n, c)
		}
		Put(b)
	}
}

func TestReuse(t *testing.T) {
	b := Get(4096)
	for i := range b {
		b[i] = 0xAB
	}
	Put(b)
	// The next same-class Get may or may not return the same backing array
	// (sync.Pool gives no guarantee), but the contents contract is
	// "undefined": callers must overwrite. Just exercise the round trip.
	c := Get(4000)
	if len(c) != 4000 {
		t.Fatalf("len %d", len(c))
	}
	Put(c)
}

func TestGetZeroed(t *testing.T) {
	b := Get(512)
	for i := range b {
		b[i] = 0xFF
	}
	Put(b)
	z := GetZeroed(512)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("GetZeroed byte %d = %#x", i, v)
		}
	}
	Put(z)
}

func TestPutPoisonsUnderRace(t *testing.T) {
	b := Get(4096)
	for i := range b {
		b[i] = 0
	}
	Put(b)
	// Reading b after Put is exactly the bug the poison exposes.
	for i, v := range b[:cap(b)] {
		want := byte(0)
		if poisonOnPut {
			want = poisonByte
		}
		if v != want {
			t.Fatalf("byte %d after Put = %#x, want %#x (poisonOnPut=%v)", i, v, want, poisonOnPut)
		}
	}
}

func TestPutForeignBuffer(t *testing.T) {
	Put(nil)
	Put(make([]byte, 0))
	Put(make([]byte, 100)) // cap 100 is not a pool class; must be dropped
	Put(make([]byte, 33, 48))
}

func TestOversize(t *testing.T) {
	n := (1 << maxClass) + 1
	b := Get(n)
	if len(b) != n {
		t.Fatalf("oversize Get returned len %d", len(b))
	}
	Put(b) // dropped: cap exceeds the largest class
}

// TestSteadyStateAllocs pins that a steady-state Get+Put round trip
// allocates nothing: Put reuses the slice-header box an earlier Get
// emptied instead of moving a fresh header to the heap.
func TestSteadyStateAllocs(t *testing.T) {
	if poisonOnPut {
		t.Skip("race builds: sync.Pool drops items at random, so reuse is not guaranteed")
	}
	Put(Get(4096))
	if a := testing.AllocsPerRun(1000, func() { Put(Get(4096)) }); a != 0 {
		t.Fatalf("Get+Put allocates %.1f times per round trip, want 0", a)
	}
}
