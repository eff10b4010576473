package pcie

// SparseMem is a byte-addressable sparse memory backing store organized in
// 4 KiB pages. It holds the *contents* of simulated memories — host DRAM,
// FPGA URAM/DRAM buffers, NAND media — while the timing of accesses is
// modeled separately. Pages are allocated on first write; reads of
// never-written pages return zeros, matching both DRAM after init and
// never-written NVMe blocks.
//
// Pages are indexed in two levels: a map from 1 MiB chunk number to a fixed
// array of page pointers, plus a one-entry cache of the last chunk touched,
// so a streaming access pays one map lookup per MiB instead of one per page.
// A chunk index is 2 KiB and is only allocated by a write.
//
// Pages are copy-on-write (see page): Share hands whole, aligned pages to a
// Payload by reference and Install takes them back the same way, so bulk
// payload moves from store to store without copying bytes, and a write to
// a page someone else still holds lands in a fresh page.
//
// Timing-only simulations pass empty Payloads through the fabric; the store
// is then never touched, keeping large benchmarks cheap.
type SparseMem struct {
	chunks map[uint64]*spChunk
	// last caches the most recently used chunk (lastNo is its number).
	last   *spChunk
	lastNo uint64
	pages  int
	// byRef and copied count Share and Install page pieces (PageMoves).
	byRef, copied int64
}

const (
	spPageShift  = 12
	spPageSize   = 1 << spPageShift
	spChunkShift = 20
	spChunkSize  = 1 << spChunkShift
	spChunkPages = spChunkSize / spPageSize
)

// spChunk holds the page pointers of one 1 MiB chunk; nil pages read as
// zeros. The store holds one reference to each page.
type spChunk [spChunkPages]*page

// NewSparseMem returns an empty store.
func NewSparseMem() *SparseMem {
	return &SparseMem{}
}

// chunk returns chunk number no, allocating it when create is set. It
// returns nil for an absent chunk otherwise.
func (s *SparseMem) chunk(no uint64, create bool) *spChunk {
	if s.last != nil && s.lastNo == no {
		return s.last
	}
	c := s.chunks[no]
	if c == nil {
		if !create {
			return nil
		}
		if s.chunks == nil {
			s.chunks = make(map[uint64]*spChunk)
		}
		c = new(spChunk)
		s.chunks[no] = c
	}
	s.last, s.lastNo = c, no
	return c
}

// slot returns the page slot of addr, or nil when its chunk is absent and
// create is false.
func (s *SparseMem) slot(addr uint64, create bool) **page {
	c := s.chunk(addr>>spChunkShift, create)
	if c == nil {
		return nil
	}
	return &c[addr>>spPageShift&(spChunkPages-1)]
}

// pageAt returns the page holding addr, nil for a page of zeros.
func (s *SparseMem) pageAt(addr uint64) *page {
	if sl := s.slot(addr, false); sl != nil {
		return *sl
	}
	return nil
}

// writable returns the page holding addr, ready to be written in place: a
// fresh page replaces an absent or shared one, starting as its old content
// unless the write covers the whole page.
func (s *SparseMem) writable(addr uint64, whole bool) *page {
	sl := s.slot(addr, true)
	if *sl == nil {
		s.pages++
	}
	return own(sl, !whole)
}

// put makes pg (nil for zeros) the page at addr, releasing the one it
// replaces. The caller hands put a reference of pg's.
func (s *SparseMem) put(addr uint64, pg *page) {
	sl := s.slot(addr, pg != nil)
	if sl == nil {
		return
	}
	if old := *sl; old != nil {
		s.pages--
		old.release()
	}
	if pg != nil {
		s.pages++
	}
	*sl = pg
}

// WriteBytes stores data at addr.
func (s *SparseMem) WriteBytes(addr uint64, data []byte) {
	for len(data) > 0 {
		off := int(addr & (spPageSize - 1))
		n := min(spPageSize-off, len(data))
		copy(s.writable(addr, n == spPageSize).data[off:], data[:n])
		addr += uint64(n)
		data = data[n:]
	}
}

// ReadBytes fills buf with the contents at addr.
func (s *SparseMem) ReadBytes(addr uint64, buf []byte) {
	for len(buf) > 0 {
		n := copy(buf, pageBytes(s.pageAt(addr))[addr&(spPageSize-1):])
		addr += uint64(n)
		buf = buf[n:]
	}
}

// Share fills dst with the content at addr: the snapshot a read takes. Each
// page of dst that lines up with a whole page here takes a reference to it
// instead of a copy (an absent page shares as nil, zeros); partial or
// misaligned pieces are copied into pages dst owns. Later writes here copy
// on write, so dst keeps what it saw.
func (s *SparseMem) Share(addr uint64, dst Payload) {
	if dst.pages == nil {
		if dst.b != nil {
			s.ReadBytes(addr, dst.b)
		}
		return
	}
	for i := 0; i < dst.n; {
		pos := dst.off + i
		po, ao := pos%PageSize, int(addr&(spPageSize-1))
		n := min(PageSize-max(po, ao), dst.n-i)
		sl := &dst.pages[pos/PageSize]
		if n == PageSize {
			old := *sl
			*sl = s.pageAt(addr).share()
			old.release()
			s.byRef++
		} else {
			copy(own(sl, true).data[po:po+n], pageBytes(s.pageAt(addr))[ao:])
			s.copied++
		}
		addr += uint64(n)
		i += n
	}
}

// Install stores src at addr: the delivery of a write. Each page of src that
// lines up with a whole page here is installed by reference, replacing the
// page that was there; partial or misaligned pieces are copied, since the
// rest of such a page of src is not src's content.
func (s *SparseMem) Install(addr uint64, src Payload) {
	if src.pages == nil {
		if src.b != nil {
			s.WriteBytes(addr, src.b)
		}
		return
	}
	for i := 0; i < src.n; {
		pos := src.off + i
		po, ao := pos%PageSize, int(addr&(spPageSize-1))
		n := min(PageSize-max(po, ao), src.n-i)
		pg := src.pages[pos/PageSize]
		if n == PageSize {
			s.put(addr, pg.share())
			s.byRef++
		} else {
			copy(s.writable(addr, false).data[ao:ao+n], pageBytes(pg)[po:])
			s.copied++
		}
		addr += uint64(n)
		i += n
	}
}

// Pages returns the number of materialized 4 KiB pages.
func (s *SparseMem) Pages() int { return s.pages }

// PageMoves returns how many page pieces Share and Install have moved by
// reference and how many they copied (partial or misaligned pieces).
func (s *SparseMem) PageMoves() (byRef, copied int64) { return s.byRef, s.copied }
