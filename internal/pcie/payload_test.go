package pcie

import (
	"bytes"
	"testing"
	"testing/quick"

	"snacc/internal/sim"
)

func TestPayloadRoundTrip(t *testing.T) {
	k, _, _, dev, hostMem, _ := testFabric(t, DefaultConfig())
	want := make([]byte, 12345)
	for i := range want {
		want[i] = byte(i * 7)
	}
	got := make([]byte, len(want))
	k.Spawn("dev", func(p *sim.Proc) {
		dev.WriteB(p, 0x4000, int64(len(want)), want)
		dev.ReadB(p, 0x4000, int64(len(got)), got)
	})
	k.Run(0)
	if !bytes.Equal(got, want) {
		t.Fatal("payload read back differs from payload written")
	}
	// The content must also be visible to host software directly.
	direct := make([]byte, len(want))
	hostMem.Store().ReadBytes(0x4000, direct)
	if !bytes.Equal(direct, want) {
		t.Fatal("host store view differs from written payload")
	}
}

func TestPayloadChunkedReadOrdering(t *testing.T) {
	// A read spanning many MRRS chunks must reassemble in order.
	k, _, _, dev, hostMem, _ := testFabric(t, DefaultConfig())
	want := make([]byte, 8192)
	for i := range want {
		want[i] = byte(i % 251)
	}
	hostMem.Store().WriteBytes(0x9000, want)
	got := make([]byte, len(want))
	k.Spawn("dev", func(p *sim.Proc) {
		dev.ReadB(p, 0x9000, int64(len(got)), got)
	})
	k.Run(0)
	if !bytes.Equal(got, want) {
		t.Fatal("chunked read reassembled incorrectly")
	}
}

func TestReadPaddingSlowsCompletion(t *testing.T) {
	measure := func(pad sim.Time) sim.Time {
		k, _, _, dev, _, _ := testFabric(t, DefaultConfig())
		dev.SetReadPadding(pad)
		var done sim.Time
		k.Spawn("dev", func(p *sim.Proc) {
			dev.ReadB(p, 0, 512, nil)
			done = p.Now()
		})
		k.Run(0)
		return done
	}
	base := measure(0)
	padded := measure(500 * sim.Nanosecond)
	if padded != base+500*sim.Nanosecond {
		t.Fatalf("padding delta = %v, want exactly 500ns", padded-base)
	}
}

func TestSparseMemZeroFill(t *testing.T) {
	s := NewSparseMem()
	buf := []byte{1, 2, 3, 4}
	s.ReadBytes(0x123456, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten memory must read as zero")
		}
	}
	if s.Pages() != 0 {
		t.Fatal("reads must not materialize pages")
	}
}

func TestSparseMemCrossPage(t *testing.T) {
	s := NewSparseMem()
	data := make([]byte, 3*4096+17)
	for i := range data {
		data[i] = byte(i)
	}
	s.WriteBytes(4090, data) // unaligned, crosses several page boundaries
	got := make([]byte, len(data))
	s.ReadBytes(4090, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page round trip failed")
	}
	// [4090, 16395) touches pages 0 through 4.
	if s.Pages() != 5 {
		t.Fatalf("Pages() = %d, want 5", s.Pages())
	}
}

func TestSparseMemProperty(t *testing.T) {
	// Arbitrary (addr, data) writes must read back identically.
	f := func(addrRaw uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		addr := uint64(addrRaw)
		s := NewSparseMem()
		s.WriteBytes(addr, data)
		got := make([]byte, len(data))
		s.ReadBytes(addr, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSparseMemZeroHugeRange(t *testing.T) {
	// A namespace-sized Zero costs what is materialized, not the range:
	// the two whole pages inside the 2 TiB range are dropped, the first
	// page, which the range covers only in part, is cleared in place, and
	// the page past the range is left alone.
	s := NewSparseMem()
	one := bytes.Repeat([]byte{7}, 4096)
	for _, addr := range []uint64{0, 1 << 30, 1<<41 - 4096} {
		s.WriteBytes(addr, one)
	}
	s.WriteBytes(1<<41, one) // just past the range
	s.Zero(100, 1<<41-100)
	if s.Pages() != 2 {
		t.Fatalf("Pages() = %d, want 2 (the partly covered first page and the page past the range)", s.Pages())
	}
	got := make([]byte, 4096)
	s.ReadBytes(0, got)
	if !bytes.Equal(got[:100], one[:100]) || !bytes.Equal(got[100:], make([]byte, 4096-100)) {
		t.Fatal("first page: the 100 bytes before the range must survive, the rest must be zero")
	}
	s.ReadBytes(1<<41, got)
	if !bytes.Equal(got, one) {
		t.Fatal("the page past the range was clobbered")
	}
}

func TestSparseMemOverlappingWrites(t *testing.T) {
	s := NewSparseMem()
	s.WriteBytes(100, []byte{1, 1, 1, 1, 1, 1})
	s.WriteBytes(102, []byte{9, 9})
	got := make([]byte, 6)
	s.ReadBytes(100, got)
	want := []byte{1, 1, 9, 9, 1, 1}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}
