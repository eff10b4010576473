package streamer

import (
	"strings"
	"testing"
	"testing/quick"

	"snacc/internal/sim"
)

func TestByteRingBasicFIFO(t *testing.T) {
	r := newByteRing(64 * 1024)
	offs := make([]int64, 0)
	for i := 0; i < 4; i++ {
		off, ok := r.tryAlloc(16 * 1024)
		if !ok {
			t.Fatalf("alloc %d failed", i)
		}
		offs = append(offs, off)
	}
	if _, ok := r.tryAlloc(1); ok {
		t.Fatal("full ring granted allocation")
	}
	r.free()
	if off, ok := r.tryAlloc(16 * 1024); !ok || off != offs[0] {
		t.Fatalf("after FIFO free, alloc = %d,%v; want reuse of %d", off, ok, offs[0])
	}
}

func TestByteRingAlignment(t *testing.T) {
	r := newByteRing(1 << 20)
	for i := 0; i < 50; i++ {
		off, ok := r.tryAlloc(int64(1 + i*517))
		if !ok {
			break
		}
		if off%4096 != 0 {
			t.Fatalf("allocation %d at %d not 4 KiB aligned", i, off)
		}
		r.free()
	}
}

func TestByteRingWrapPadding(t *testing.T) {
	// A segment must never wrap: allocations that don't fit before the end
	// pad to offset 0.
	r := newByteRing(64 * 1024)
	a, _ := r.tryAlloc(40 * 1024)
	r.free()
	_ = a
	b, ok := r.tryAlloc(40 * 1024) // tail at 40k; 40k doesn't fit before 64k
	if !ok {
		t.Fatal("wrap allocation failed")
	}
	if b != 0 {
		t.Fatalf("wrapped allocation at %d, want 0", b)
	}
	if b+40*1024 > 64*1024 {
		t.Fatal("segment crosses the ring end")
	}
}

func TestByteRingOversizePanics(t *testing.T) {
	r := newByteRing(64 * 1024)
	defer func() {
		if recover() == nil {
			t.Error("oversize allocation did not panic")
		}
	}()
	r.tryAlloc(128 * 1024)
}

func TestByteRingFreeWithoutAllocPanics(t *testing.T) {
	r := newByteRing(64 * 1024)
	defer func() {
		if recover() == nil {
			t.Error("free on empty ring did not panic")
		}
	}()
	r.free()
}

// Property: any sequence of alloc/free (free only when live) keeps every
// live segment contiguous, aligned, inside the ring, and non-overlapping.
func TestByteRingInvariantProperty(t *testing.T) {
	type segment struct{ off, size int64 }
	f := func(ops []uint16) bool {
		r := newByteRing(256 * 1024)
		var live []segment
		for _, op := range ops {
			if op%3 == 0 && len(live) > 0 {
				r.free()
				live = live[1:]
				continue
			}
			size := int64(op%(48*1024)) + 1
			off, ok := r.tryAlloc(size)
			if !ok {
				continue
			}
			rounded := roundUp(size)
			if off%4096 != 0 || off+rounded > 256*1024 {
				return false
			}
			for _, s := range live {
				if off < s.off+s.size && s.off < off+rounded {
					return false // overlap
				}
			}
			live = append(live, segment{off: off, size: rounded})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestByteRingBlockingFIFOWaiters(t *testing.T) {
	// Multiple blocked allocators must be admitted strictly in order as
	// space frees — the lost-wakeup regression test.
	k := sim.NewKernel()
	r := newByteRing(64 * 1024)
	// Fill the ring.
	if _, ok := r.tryAlloc(64 * 1024); !ok {
		t.Fatal("initial fill failed")
	}
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		slept := false
		k.SpawnStep("w", func(p *sim.Proc) {
			if !slept {
				slept = true
				p.SleepStep(sim.Time(i + 1)) // deterministic arrival order
				return
			}
			if _, ok := r.alloc(p, 16*1024); ok {
				order = append(order, i)
			}
		})
	}
	k.Spawn("freer", func(p *sim.Proc) {
		p.Sleep(100)
		r.free() // frees all 64k: admits all three in order
	})
	k.Run(0)
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("admission order = %v, want [0 1 2]", order)
	}
}

func TestSlotPoolExhaustionAndReuse(t *testing.T) {
	k := sim.NewKernel()
	sp := newSlotPool(4*64*1024, 64*1024)
	var got []int64
	k.SpawnStep("a", func(p *sim.Proc) {
		// The pool holds four slots; the fifth blocks until a release.
		for len(got) < 5 {
			off, ok := sp.alloc(p, 4096)
			if !ok {
				return
			}
			got = append(got, off)
		}
	})
	k.Spawn("r", func(p *sim.Proc) {
		p.Sleep(100)
		sp.release(got[2])
	})
	k.Run(0)
	if len(got) != 5 {
		t.Fatalf("allocations = %d, want 5", len(got))
	}
	if got[4] != got[2] {
		t.Fatalf("fifth allocation reused %d, want released slot %d", got[4], got[2])
	}
}

// TestAllocatorsAdmitInOrder pins strict FIFO admission for step processes
// on both payload allocators: a request that arrives while another waits
// queues behind it even when space is free at that moment, so the waiter
// woken by the release gets the space first.
func TestAllocatorsAdmitInOrder(t *testing.T) {
	ring := newByteRing(64 * 1024)
	pool := newSlotPool(64*1024, 64*1024)
	allocs := map[string]func(p *sim.Proc) (int64, bool){
		"ring": func(p *sim.Proc) (int64, bool) { return ring.alloc(p, 64*1024) },
		"pool": func(p *sim.Proc) (int64, bool) { return pool.alloc(p, 4096) },
	}
	frees := map[string]func(off int64){
		"ring": func(int64) { ring.free() },
		"pool": pool.release,
	}
	for name, alloc := range allocs {
		free := frees[name]
		k := sim.NewKernel()
		held, _ := alloc(nil) // fills the allocator
		var order []string
		k.SpawnStep("first", func(p *sim.Proc) {
			if off, ok := alloc(p); ok {
				order = append(order, "first")
				free(off)
			}
		})
		late := false
		k.SpawnStep("late", func(p *sim.Proc) {
			if !late {
				late = true
				p.SleepStep(1)
				return
			}
			if held >= 0 {
				free(held) // wakes "first", then asks again at once
				held = -1
			}
			if off, ok := alloc(p); ok {
				order = append(order, "late")
				free(off)
			}
		})
		k.Run(0)
		if got := strings.Join(order, ","); got != "first,late" {
			t.Errorf("%s admitted %q, want first,late", name, got)
		}
	}
}

func TestSlotPoolOversizePanics(t *testing.T) {
	sp := newSlotPool(1<<20, 64*1024)
	defer func() {
		if recover() == nil {
			t.Error("oversize slot request did not panic")
		}
	}()
	// The size check fires before any scheduling, so a nil proc is safe
	// here and keeps the panic on the test goroutine.
	sp.alloc(nil, 128*1024)
}
