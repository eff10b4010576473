package pcie

import (
	"bytes"
	"testing"
)

// putCase describes one Put: a destination and a source view, where the
// source lands, and which source pages are left nil (zeros). dstBytes or
// srcBytes makes that side a byte view of the same length instead.
type putCase struct {
	dstOff, dstN int
	dstBytes     bool
	srcOff, srcN int
	srcBytes     bool
	srcNil       uint64 // bit i: source page slot i stays nil
	off          int
}

func fillSeq(b []byte, seed byte) {
	for i := range b {
		b[i] = seed + byte(i*7+i>>12)
	}
}

// build returns a view of n bytes at page offset off holding a pattern
// derived from seed, except in the page slots that nilMask names, which
// stay nil and read as zeros; it also returns the flat content.
func build(off, n int, asBytes bool, seed byte, nilMask uint64) (Payload, []byte) {
	ref := make([]byte, n)
	fillSeq(ref, seed)
	if asBytes {
		return Bytes(bytes.Clone(ref)), ref
	}
	p := NewPages(off, n)
	for i := 0; i < n; {
		pos := off + i
		m := min(PageSize-pos%PageSize, n-i)
		if nilMask>>(pos/PageSize)&1 == 1 {
			clear(ref[i : i+m])
		} else {
			p.WriteAt(ref[i:i+m], i)
		}
		i += m
	}
	return p, ref
}

func contentOf(p Payload) []byte {
	got := make([]byte, p.Len())
	p.ReadAt(got, 0)
	return got
}

// checkPut runs c against a flat []byte oracle: the destination must read
// as its old content with the source copied in at c.off, every source piece
// that covers a destination page exactly must share the source's page (or
// nil), every other touched slot must hold a page of the destination's own,
// and later writes to either side must not reach the other.
func checkPut(t *testing.T, c putCase) {
	t.Helper()
	dst, want := build(c.dstOff, c.dstN, c.dstBytes, 1, 0)
	src, srcRef := build(c.srcOff, c.srcN, c.srcBytes, 101, c.srcNil)
	copy(want[c.off:], srcRef)

	dst.Put(src, c.off)
	if !bytes.Equal(contentOf(dst), want) {
		t.Fatalf("%+v: destination differs from the oracle", c)
	}
	if !bytes.Equal(contentOf(src), srcRef) {
		t.Fatalf("%+v: Put changed its source", c)
	}
	if !c.dstBytes && !c.srcBytes {
		for i := 0; i < c.srcN; {
			pos, spos := c.dstOff+c.off+i, c.srcOff+i
			n := min(PageSize-max(pos%PageSize, spos%PageSize), c.srcN-i)
			got, sp := dst.pages[pos/PageSize], src.pages[spos/PageSize]
			switch {
			case n == PageSize && got != sp:
				t.Fatalf("%+v: whole aligned source page at %d was copied, not shared", c, i)
			case n == PageSize && sp != nil && sp.refs != 2:
				t.Fatalf("%+v: shared page at %d has %d references, want 2", c, i, sp.refs)
			case n < PageSize && (got == nil || got == sp):
				t.Fatalf("%+v: partial piece at %d was not copied into a page of the destination's own", c, i)
			}
			i += n
		}
	}

	// Copy on write, both ways: the source changes under a held
	// destination, then the destination under the changed source.
	srcNew := bytes.Repeat([]byte{0xD1}, c.srcN)
	src.WriteAt(srcNew, 0)
	if !bytes.Equal(contentOf(dst), want) {
		t.Fatalf("%+v: a write to the source reached the destination", c)
	}
	dst.WriteAt(bytes.Repeat([]byte{0xE2}, c.dstN), 0)
	if !bytes.Equal(contentOf(src), srcNew) {
		t.Fatalf("%+v: a write to the destination reached the source", c)
	}
	src.Release()
	dst.Release()
}

func TestPayloadPut(t *testing.T) {
	const P = PageSize
	for name, c := range map[string]putCase{
		"aligned whole pages":        {dstN: 4 * P, srcN: 3 * P, off: P},
		"aligned with a nil page":    {dstN: 4 * P, srcN: 3 * P, srcNil: 0b010, off: 0},
		"aligned at a shared offset": {dstOff: 512, dstN: 3 * P, srcOff: 1024, srcN: 2 * P, off: 512},
		"aligned with partial ends":  {dstN: 4 * P, srcOff: 100, srcN: 2*P + 300, off: 100},
		"misaligned":                 {dstN: 4 * P, srcN: 2 * P, off: 512},
		"misaligned nil pages":       {dstOff: 7, dstN: 3 * P, srcN: 2 * P, srcNil: 0b11, off: 9},
		"into a page's middle":       {dstN: P, srcOff: 3000, srcN: 100, off: 40},
		"empty source":               {dstN: P, srcN: 0, off: P},
		"byte-view source":           {dstN: 3 * P, srcN: 2 * P, srcBytes: true, off: P},
		"byte-view destination":      {dstN: 3 * P, dstBytes: true, srcOff: 200, srcN: 2 * P, srcNil: 0b1, off: 50},
	} {
		t.Run(name, func(t *testing.T) { checkPut(t, c) })
	}
}

// TestPayloadPutOutOfRange: a source that does not fit panics instead of
// writing past the destination's view.
func TestPayloadPutOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put past the end of the destination did not panic")
		}
	}()
	dst, _ := build(0, PageSize, false, 1, 0)
	src, _ := build(0, 2*PageSize, false, 2, 0)
	dst.Put(src, 0)
}

// FuzzPayloadPut checks Put against the flat oracle for arbitrary shapes:
// page offsets, lengths up to four pages, the landing offset, nil source
// pages and byte views on either side.
func FuzzPayloadPut(f *testing.F) {
	f.Add(uint16(0), uint16(4*PageSize), uint16(0), uint16(3*PageSize), uint16(PageSize), uint8(0b010), uint8(0))
	f.Add(uint16(512), uint16(3*PageSize), uint16(1024), uint16(2*PageSize), uint16(512), uint8(0), uint8(0))
	f.Add(uint16(7), uint16(3*PageSize), uint16(0), uint16(2*PageSize), uint16(9), uint8(0b11), uint8(0))
	f.Add(uint16(0), uint16(2*PageSize), uint16(5), uint16(PageSize), uint16(3), uint8(0), uint8(1))
	f.Add(uint16(0), uint16(2*PageSize), uint16(5), uint16(PageSize), uint16(3), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, dstOff, dstN, srcOff, srcN, off uint16, srcNil, views uint8) {
		c := putCase{
			dstOff:   int(dstOff) % PageSize,
			dstN:     int(dstN) % (4*PageSize + 1),
			dstBytes: views&1 == 1,
			srcOff:   int(srcOff) % PageSize,
			srcBytes: views&2 == 2,
			srcNil:   uint64(srcNil),
		}
		c.srcN = int(srcN) % (c.dstN + 1)
		c.off = int(off) % (c.dstN - c.srcN + 1)
		checkPut(t, c)
	})
}
