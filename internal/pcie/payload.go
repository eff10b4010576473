package pcie

import (
	"bytes"
	"sync"
)

// PageSize is the granule functional payload moves in: a SparseMem page,
// and the unit a Payload hands over by reference.
const PageSize = spPageSize

// page is one reference-counted, copy-on-write 4 KiB payload page. A page
// is held by every store slot and Payload slot that points at it, and
// whoever holds it may write it in place only while it holds the only
// reference; any other write first takes a fresh page. A page whose last
// reference is released goes back to a sync.Pool for reuse.
//
// Refcounts are plain ints: a page is shared only inside one simulation
// kernel (whose events never run concurrently), and only free pages cross
// between kernels, through the pool. A reference that is never released
// only costs a copy on a later write and leaves the page to the garbage
// collector; it never yields wrong bytes.
type page struct {
	refs int
	data *[PageSize]byte
}

// pagePool holds free pages with undefined contents. There is no retained
// free list: idle pages are the garbage collector's to reclaim.
var pagePool sync.Pool

// newPage returns a page with one reference and undefined contents.
func newPage() *page {
	if v := pagePool.Get(); v != nil {
		pg := v.(*page)
		pg.refs = 1
		return pg
	}
	return &page{refs: 1, data: new([PageSize]byte)}
}

// share adds a reference to pg, which may be nil (a page of zeros).
func (pg *page) share() *page {
	if pg != nil {
		pg.refs++
	}
	return pg
}

// release drops one reference; the last one returns the page to the pool.
// Race builds poison the page first, so a holder that reads it after its
// release sees poisonByte instead of bytes that happen to be right.
func (pg *page) release() {
	if pg == nil {
		return
	}
	pg.refs--
	switch {
	case pg.refs > 0:
		return
	case pg.refs < 0:
		panic("pcie: payload page released more often than shared")
	}
	if poisonOnRelease {
		for i := range pg.data {
			pg.data[i] = poisonByte
		}
	}
	pagePool.Put(pg)
}

// poisonByte is what race builds fill a released page with.
const poisonByte = 0xA5

// own makes *slot a page its holder may write in place, taking a fresh page
// when the slot is empty (zeros) or shared (copy on write). A partial write
// passes keep, so the fresh page starts as the old content (zeros for an
// empty slot); a write covering the whole page copies nothing.
func own(slot **page, keep bool) *page {
	old := *slot
	if old != nil && old.refs == 1 {
		return old
	}
	pg := newPage()
	if keep {
		copy(pg.data[:], pageBytes(old))
	}
	old.release()
	*slot = pg
	return pg
}

// Payload is the functional content of a transaction: what a PCIe read or
// write, a staging-memory access, or an AXI data packet carries. The zero
// Payload carries none (timing-only traffic), and costs nothing to pass.
//
// A Payload is one of two views:
//   - a byte view (Bytes) wraps a caller's slice without copying it. Control
//     traffic (queue entries, doorbells, PRP lists, registers) and content a
//     PE hands in travel this way;
//   - a page view (NewPages) is a list of page references, the first holding
//     byte 0 at a given offset. Bulk data travels this way, so moving a whole,
//     aligned page from one SparseMem to another hands over its pointer.
//
// A page view holds one reference to every non-nil page in its list (a nil
// page reads as zeros) and gives them back with Release. Slice returns a
// view into the same list that holds no references of its own: only the
// Payload NewPages returned is released, once, after every consumer of its
// slices is done. A consumer that keeps pages past that point (a store that
// installs them) takes references of its own.
type Payload struct {
	pages []*page
	b     []byte
	off   int // offset of byte 0 within pages[0]
	n     int // length of a page view
}

// Bytes wraps b as a byte-view Payload; Bytes(nil) is the empty Payload.
func Bytes(b []byte) Payload { return Payload{b: b} }

// NewPages returns a page view of n bytes whose byte 0 sits at offset off
// (0 <= off < PageSize) of its first page, with every page slot empty. The
// slots are filled by SparseMem.Share or WriteAt; the caller must fill every
// byte before it is read or installed.
func NewPages(off, n int) Payload {
	if off < 0 || off >= PageSize || n < 0 {
		panic("pcie: NewPages offset outside a page or negative length")
	}
	return Payload{pages: make([]*page, (off+n+PageSize-1)/PageSize), off: off, n: n}
}

// IsNil reports whether p carries no content.
func (p Payload) IsNil() bool { return p.pages == nil && p.b == nil }

// Len returns the content length in bytes.
func (p Payload) Len() int {
	if p.pages != nil {
		return p.n
	}
	return len(p.b)
}

// Slice returns the view of bytes [off, off+n) of p. The empty Payload
// slices to itself.
func (p Payload) Slice(off, n int) Payload {
	if p.pages == nil {
		if p.b == nil {
			return p
		}
		return Payload{b: p.b[off : off+n]}
	}
	if off < 0 || n < 0 || off+n > p.n {
		panic("pcie: payload slice out of range")
	}
	start := p.off + off
	first := start / PageSize
	return Payload{pages: p.pages[first : (start+n+PageSize-1)/PageSize], off: start % PageSize, n: n}
}

// ReadAt copies bytes [off, off+len(dst)) of p into dst.
func (p Payload) ReadAt(dst []byte, off int) {
	if p.pages == nil {
		copy(dst, p.b[off:])
		return
	}
	for len(dst) > 0 {
		pos := p.off + off
		po := pos % PageSize
		m := copy(dst, pageBytes(p.pages[pos/PageSize])[po:])
		dst, off = dst[m:], off+m
	}
}

// WriteAt copies src into p at byte off. A page-view slot that is empty or
// shared is first replaced by a fresh page (copy on write); p's release then
// covers it.
func (p Payload) WriteAt(src []byte, off int) {
	if p.pages == nil {
		copy(p.b[off:], src)
		return
	}
	for len(src) > 0 {
		pos := p.off + off
		po := pos % PageSize
		m := min(PageSize-po, len(src))
		copy(own(&p.pages[pos/PageSize], m < PageSize).data[po:], src[:m])
		src, off = src[m:], off+m
	}
}

// segPool recycles Concat's list of page segments.
var segPool sync.Pool

// Concat returns the content of parts, in order, as one new slice of their
// total length (nil when there is none): the one copy a reader takes out of
// page payloads. It goes through bytes.Join because that allocates the
// result without clearing it first, which for a multi-MiB read costs as
// much as the copy.
func Concat(parts []Payload) []byte {
	sp, _ := segPool.Get().(*[][]byte)
	if sp == nil {
		sp = new([][]byte)
	}
	segs := (*sp)[:0]
	for _, p := range parts {
		if p.pages == nil {
			if len(p.b) > 0 {
				segs = append(segs, p.b)
			}
			continue
		}
		for i, end := p.off, p.off+p.n; i < end; {
			m := min(PageSize-i%PageSize, end-i)
			segs = append(segs, pageBytes(p.pages[i/PageSize])[i%PageSize:][:m])
			i += m
		}
	}
	var out []byte
	if len(segs) > 0 {
		out = bytes.Join(segs, nil)
	}
	clear(segs)
	*sp = segs[:0]
	segPool.Put(sp)
	return out
}

// Bytes returns p's content as one slice: a byte view's own slice, or a
// fresh copy of a page view. Control-path decoders use it.
func (p Payload) Bytes() []byte {
	if p.pages == nil {
		return p.b
	}
	b := make([]byte, p.n)
	p.ReadAt(b, 0)
	return b
}

// Release gives back the references p holds. Call it once, on the Payload
// NewPages returned, after every consumer of its slices is done; a byte
// view holds none.
func (p Payload) Release() {
	for i, pg := range p.pages {
		pg.release()
		p.pages[i] = nil
	}
}

// zeroPage backs reads of nil pages.
var zeroPage [PageSize]byte

// pageBytes returns pg's bytes, or a page of zeros for a nil page.
func pageBytes(pg *page) []byte {
	if pg == nil {
		return zeroPage[:]
	}
	return pg.data[:]
}
