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

// overwritingMem serves a read like its MemCompleter, then overwrites the
// bytes it served: the write lands after the read's snapshot (CompleteRead)
// but before the completion has travelled back to the initiator.
type overwritingMem struct{ *MemCompleter }

func (m overwritingMem) CompleteRead(addr uint64, n int64, dst Payload, done func()) {
	m.MemCompleter.CompleteRead(addr, n, dst, done)
	m.Store().WriteBytes(addr-m.Base, bytes.Repeat([]byte{0xEE}, int(n)))
}

// TestDMAReadChunkKeepsSnapshot: a read's content is what the target held
// at CompleteRead. With page-sized read requests each chunk shares the
// target's page, and the overwrite copies on write; with 512-byte requests
// each chunk is copied into the destination's own pages. Either way the
// destination keeps the old bytes and the target holds the new ones.
func TestDMAReadChunkKeepsSnapshot(t *testing.T) {
	for _, mrrs := range []int64{PageSize, 512} {
		k := sim.NewKernel()
		f := NewFabric(k, DefaultConfig())
		mem := overwritingMem{NewMemCompleter(k, 50e9, 90*sim.Nanosecond)}
		host := f.AttachHostPort("host", LinkConfig{Gen: Gen4, Lanes: 16}, mem)
		f.MapRange(host, 0, 1<<20)
		dev := f.AttachPort("dev", LinkConfig{Gen: Gen4, Lanes: 4, MaxReadRequest: mrrs}, nil)
		f.IOMMU().Grant("dev", 0, 1<<20)
		want := make([]byte, 3*PageSize)
		for i := range want {
			want[i] = byte(i*7 + i>>12)
		}
		mem.Store().WriteBytes(0x2000, want)
		dst := NewPages(0, len(want))
		landed := false
		dev.Read(0x2000, int64(len(want)), dst, func() { landed = true })
		k.Run(0)
		got := make([]byte, len(want))
		dst.ReadAt(got, 0)
		if !landed || !bytes.Equal(got, want) {
			t.Fatalf("MRRS %d: the read lost the snapshot taken at CompleteRead", mrrs)
		}
		mem.Store().ReadBytes(0x2000, got)
		if !bytes.Equal(got, bytes.Repeat([]byte{0xEE}, len(want))) {
			t.Fatalf("MRRS %d: the target lost the overwrite", mrrs)
		}
		byRef, copied := mem.Store().PageMoves()
		if wantRef := int64(len(want) / PageSize); mrrs == PageSize && (byRef != wantRef || copied != 0) {
			t.Fatalf("MRRS %d: %d pages shared and %d pieces copied, want %d and 0", mrrs, byRef, copied, wantRef)
		} else if mrrs != PageSize && byRef != 0 {
			t.Fatalf("MRRS %d: %d sub-page chunks shared a page by reference", mrrs, byRef)
		}
		dst.Release()
	}
}

// TestSparseMemZeroSharedPage: two stores sharing pages after a hand-over
// stay independent under Zero. A partial Zero copies the page first; a
// whole-page Zero drops only the zeroing store's reference.
func TestSparseMemZeroSharedPage(t *testing.T) {
	a, b := NewSparseMem(), NewSparseMem()
	want := make([]byte, 2*PageSize)
	for i := range want {
		want[i] = byte(i%251 + 1)
	}
	a.WriteBytes(0, want)
	p := NewPages(0, len(want))
	a.Share(0, p)
	b.Install(0, p)
	p.Release()
	a.Zero(100, 200)
	b.Zero(PageSize, PageSize)

	wantA := bytes.Clone(want)
	clear(wantA[100:300])
	wantB := bytes.Clone(want)
	clear(wantB[PageSize:])
	for _, c := range []struct {
		name string
		s    *SparseMem
		want []byte
	}{{"a", a, wantA}, {"b", b, wantB}} {
		got := make([]byte, len(want))
		c.s.ReadBytes(0, got)
		if !bytes.Equal(got, c.want) {
			t.Errorf("store %s: Zero on the other owner's shared page leaked into this one", c.name)
		}
		if byRef, copied := c.s.PageMoves(); byRef != 2 || copied != 0 {
			t.Errorf("store %s: PageMoves = %d by reference, %d copied, want 2 and 0", c.name, byRef, copied)
		}
	}
	if a.Pages() != 2 || b.Pages() != 1 {
		t.Errorf("Pages() = %d and %d, want 2 and 1", a.Pages(), b.Pages())
	}
}
