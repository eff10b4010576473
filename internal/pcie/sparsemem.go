package pcie

// SparseMem is a byte-addressable sparse memory backing store organized in
// 4 KiB pages. It holds the *contents* of simulated memories — host DRAM,
// FPGA URAM/DRAM buffers, NAND media — while the timing of accesses is
// modeled separately. Pages are allocated on first write; reads of
// never-written pages return zeros, matching both DRAM after init and NVMe
// deallocated-block semantics.
//
// Pages are indexed in two levels: a map from 1 MiB chunk number to a fixed
// array of page pointers, plus a one-entry cache of the last chunk touched,
// so a streaming access pays one map lookup per MiB instead of one per page.
// A chunk index is 2 KiB and is only allocated by a write.
//
// Timing-only simulations pass nil data buffers through the fabric; the
// store is then never touched, keeping large benchmarks cheap.
type SparseMem struct {
	chunks map[uint64]*spChunk
	// last caches the most recently used chunk (lastNo is its number).
	last   *spChunk
	lastNo uint64
	pages  int
}

const (
	spPageShift  = 12
	spPageSize   = 1 << spPageShift
	spChunkShift = 20
	spChunkSize  = 1 << spChunkShift
	spChunkPages = spChunkSize / spPageSize
)

// spChunk holds the page pointers of one 1 MiB chunk; nil pages read as
// zeros.
type spChunk [spChunkPages]*[spPageSize]byte

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

// WriteBytes stores data at addr.
func (s *SparseMem) WriteBytes(addr uint64, data []byte) {
	for len(data) > 0 {
		c := s.chunk(addr>>spChunkShift, true)
		pi := addr >> spPageShift & (spChunkPages - 1)
		page := c[pi]
		if page == nil {
			page = new([spPageSize]byte)
			c[pi] = page
			s.pages++
		}
		n := copy(page[addr&(spPageSize-1):], data)
		addr += uint64(n)
		data = data[n:]
	}
}

// ReadBytes fills buf with the contents at addr.
func (s *SparseMem) ReadBytes(addr uint64, buf []byte) {
	for len(buf) > 0 {
		off := addr & (spPageSize - 1)
		n := min(spPageSize-int(off), len(buf))
		var page *[spPageSize]byte
		if c := s.chunk(addr>>spChunkShift, false); c != nil {
			page = c[addr>>spPageShift&(spChunkPages-1)]
		}
		if page != nil {
			copy(buf[:n], page[off:])
		} else {
			clear(buf[:n])
		}
		addr += uint64(n)
		buf = buf[n:]
	}
}

// Zero makes [addr, addr+n) read back as zeros without materializing
// anything: partially covered pages are cleared in place and wholly covered
// pages are dropped. The cost scales with the materialized chunks the range
// touches, not with its size, so a namespace-wide deallocate is cheap.
func (s *SparseMem) Zero(addr uint64, n int64) {
	if n <= 0 || len(s.chunks) == 0 {
		return
	}
	end := addr + uint64(n)
	first, last := addr>>spChunkShift, (end-1)>>spChunkShift
	if last-first >= uint64(len(s.chunks)) {
		// The range spans more chunks than exist: visit the existing ones.
		for no := range s.chunks {
			if no >= first && no <= last {
				s.zeroChunk(no, addr, end)
			}
		}
		return
	}
	for no := first; no <= last; no++ {
		s.zeroChunk(no, addr, end)
	}
}

// zeroChunk zeroes the part of [addr, end) inside chunk no, deleting the
// chunk once its last page is dropped.
func (s *SparseMem) zeroChunk(no, addr, end uint64) {
	c := s.chunks[no]
	if c == nil {
		return
	}
	base := no << spChunkShift
	lo, hi := max(addr, base), min(end, base+spChunkSize)
	dropped := false
	for a := lo; a < hi; {
		pi := a >> spPageShift & (spChunkPages - 1)
		off := a & (spPageSize - 1)
		m := min(spPageSize-off, hi-a)
		if page := c[pi]; page != nil {
			if m == spPageSize {
				c[pi] = nil
				s.pages--
				dropped = true
			} else {
				clear(page[off : off+m])
			}
		}
		a += m
	}
	if dropped && *c == (spChunk{}) {
		delete(s.chunks, no)
		if s.last == c {
			s.last = nil
		}
	}
}

// Pages returns the number of materialized 4 KiB pages.
func (s *SparseMem) Pages() int { return s.pages }
