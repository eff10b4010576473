package memmodel

import (
	"testing"
	"testing/quick"

	"snacc/internal/pcie"
	"snacc/internal/sim"
)

func TestChunkedBufferAccessors(t *testing.T) {
	b := NewChunkedBuffer(4<<20, []uint64{0x1000_0000, 0x5000_0000})
	if b.Size() != 8<<20 || b.ChunkSize() != 4<<20 || b.Chunks() != 2 {
		t.Fatalf("accessors wrong: size=%d chunk=%d n=%d", b.Size(), b.ChunkSize(), b.Chunks())
	}
}

func TestChunkedBufferValidation(t *testing.T) {
	for _, build := range []func(){
		func() { NewChunkedBuffer(0, []uint64{0x1000}) },
		func() { NewChunkedBuffer(4096, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid chunked buffer accepted")
				}
			}()
			build()
		}()
	}
	b := NewChunkedBuffer(4096, []uint64{0x1000})
	defer func() {
		if recover() == nil {
			t.Error("out-of-range translate accepted")
		}
	}()
	b.Translate(4096)
}

func TestChunkedBufferRunsTileProperty(t *testing.T) {
	// Runs must tile the requested range exactly: lengths sum to n, each
	// run physically matches per-offset Translate, runs stay in order.
	b := NewChunkedBuffer(8192, []uint64{0x10000, 0x40000, 0x20000})
	f := func(offRaw, nRaw uint16) bool {
		off := int64(offRaw) % b.Size()
		n := int64(nRaw) % (b.Size() - off)
		runs := b.Runs(off, n)
		var total int64
		pos := off
		for _, r := range runs {
			phys, _ := b.Translate(pos)
			if r.Phys != phys || r.Len <= 0 {
				return false
			}
			pos += r.Len
			total += r.Len
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDRAMRowMissAccounting(t *testing.T) {
	k := sim.NewKernel()
	d := NewDRAM(k, DefaultDRAMConfig())
	done := func() {}
	// Same row twice: at most one miss. Distant rows: misses accumulate.
	d.ReadAccess(0, 64, pcie.Payload{}, done)
	d.ReadAccess(64, 64, pcie.Payload{}, done)
	sameRow := d.RowMisses()
	d.ReadAccess(uint64(d.Size()/2), 64, pcie.Payload{}, done)
	d.ReadAccess(0, 64, pcie.Payload{}, done)
	k.Run(0)
	if d.RowMisses() < sameRow+2 {
		t.Fatalf("row misses %d after two far jumps (was %d)", d.RowMisses(), sameRow)
	}
	if d.Accesses() != 4 {
		t.Fatalf("accesses = %d, want 4", d.Accesses())
	}
}

func TestDRAMTurnaroundAccounting(t *testing.T) {
	k := sim.NewKernel()
	d := NewDRAM(k, DefaultDRAMConfig())
	d.ReadAccess(0, 4096, pcie.Payload{}, func() {})
	d.WriteAccess(0, 4096, pcie.Payload{}, func() {})
	d.ReadAccess(0, 4096, pcie.Payload{}, func() {})
	k.Run(0)
	if d.Turnarounds() < 2 {
		t.Fatalf("turnarounds = %d, want >= 2 (R->W->R)", d.Turnarounds())
	}
}

func TestDRAMBoundsPanic(t *testing.T) {
	k := sim.NewKernel()
	d := NewDRAM(k, DefaultDRAMConfig())
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds DRAM access accepted")
		}
	}()
	d.ReadAccess(uint64(d.Size()), 64, pcie.Payload{}, func() {})
}

func TestHBMAccessors(t *testing.T) {
	k := sim.NewKernel()
	h := NewHBM(k, DefaultHBMConfig())
	if h.Channels() != 32 {
		t.Fatalf("channels = %d, want 32", h.Channels())
	}
	if h.Store() == nil {
		t.Fatal("nil store")
	}
}

func TestURAMStore(t *testing.T) {
	k := sim.NewKernel()
	u := NewURAM(k, testURAMConfig())
	if u.Store() == nil {
		t.Fatal("nil URAM store")
	}
}
