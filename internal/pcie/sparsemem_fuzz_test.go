package pcie

import (
	"bytes"
	"testing"
)

// Each fuzz op is 8 bytes: kind (the low nibble) and store (bit 4), a
// 3-byte little-endian address and a 3-byte length (both folded into the
// window), and a fill byte.
const (
	fuzzOpWrite = iota
	fuzzOpRead
	fuzzOpZero
	// fuzzOpMove shares [addr, addr+n) of one store into a page payload
	// and installs it in the other store at addr + fill*256 (folded into
	// the window): a page-aligned shift when fill%16 == 0, a misaligned
	// one, which copies, otherwise. The payload is held until the next
	// move, and must keep its snapshot meanwhile.
	fuzzOpMove
	fuzzOpKinds

	fuzzOpBytes = 8
	// fuzzWindow spans three 1 MiB chunks and starts half a chunk into
	// one, far above address 0, so chunk numbers and offsets are both
	// exercised.
	fuzzWindow = 3 << 20
	fuzzBase   = 5<<30 + 1<<19
	fuzzMaxLen = 3 << 19
)

func fuzzOp(kind byte, addr, n int, fill byte) []byte {
	return []byte{kind, byte(addr), byte(addr >> 8), byte(addr >> 16),
		byte(n), byte(n >> 8), byte(n >> 16), fill}
}

// fuzzOn directs op to the second store.
func fuzzOn(op []byte) []byte { op[0] |= 1 << 4; return op }

func fuzzOps(ops ...[]byte) []byte { return bytes.Join(ops, nil) }

// fuzzStore is a SparseMem with its flat reference: the bytes it must
// hold, and which pages it must have materialized.
type fuzzStore struct {
	s    *SparseMem
	ref  []byte
	live []bool
}

func (f *fuzzStore) check(t *testing.T, name string) {
	t.Helper()
	got := make([]byte, fuzzWindow)
	f.s.ReadBytes(fuzzBase, got)
	if !bytes.Equal(got, f.ref) {
		t.Fatalf("store %s: final read-back differs from the reference", name)
	}
	want := 0
	for _, l := range f.live {
		if l {
			want++
		}
	}
	if f.s.Pages() != want {
		t.Fatalf("store %s: Pages() = %d, want %d materialized", name, f.s.Pages(), want)
	}
}

// FuzzSparseMem runs random WriteBytes, ReadBytes and Zero calls on two
// stores, and page hand-overs between them (Share into a payload, Install
// from it), each store checked against its own flat []byte reference:
// every read must match it, a write after a hand-over must reach neither
// the other store nor the payload still holding the shared pages, and
// Pages() must equal the pages the reference says are materialized. A page
// is materialized by a write or a copied install, dropped by a Zero that
// covers it whole, and takes the source page's state when installed whole
// by reference.
func FuzzSparseMem(f *testing.F) {
	const page, chunk = spPageSize, spChunkSize
	seeds := [][]byte{
		// Accesses straddling a page boundary.
		fuzzOps(fuzzOp(fuzzOpWrite, page-6, 20, 1), fuzzOp(fuzzOpRead, page-16, 40, 0)),
		// Accesses straddling the chunk boundary half a MiB into the window.
		fuzzOps(fuzzOp(fuzzOpWrite, chunk/2-100, 2*page, 2), fuzzOp(fuzzOpRead, chunk/2-page, 4*page, 0)),
		// A read of a never-written hole, inside and across chunks.
		fuzzOps(fuzzOp(fuzzOpRead, 2*chunk+5, 9000, 0), fuzzOp(fuzzOpRead, chunk/2-7, chunk, 0)),
		// Partial-page and whole-page Zero.
		fuzzOps(fuzzOp(fuzzOpWrite, 0, 3*page, 3), fuzzOp(fuzzOpZero, 100, 200, 0),
			fuzzOp(fuzzOpZero, 2*page+1000, page-1001, 0), fuzzOp(fuzzOpZero, page, page, 0),
			fuzzOp(fuzzOpRead, 0, 3*page, 0)),
		// A Zero dropping a whole chunk, a write back into it, a write to
		// another chunk, then a read of the first.
		fuzzOps(fuzzOp(fuzzOpWrite, chunk/2, chunk, 4), fuzzOp(fuzzOpZero, chunk/2-10, chunk+20, 0),
			fuzzOp(fuzzOpWrite, chunk/2+3*page, 10, 5), fuzzOp(fuzzOpWrite, 2*chunk, 10, 7),
			fuzzOp(fuzzOpRead, chunk/2-page, chunk, 0)),
		// A Zero wider than the materialized chunks (walks the chunk map).
		fuzzOps(fuzzOp(fuzzOpWrite, 2*chunk+page/2, page, 6), fuzzOp(fuzzOpZero, 0, fuzzWindow, 0)),
		// An aligned hand-over (by reference, a hole included), then writes
		// into the shared pages on both sides and a partial Zero of one.
		fuzzOps(fuzzOp(fuzzOpWrite, 0, 3*page, 8), fuzzOp(fuzzOpMove, 0, 5*page, 16),
			fuzzOp(fuzzOpWrite, page+10, 20, 9), fuzzOn(fuzzOp(fuzzOpWrite, 4096*16+2*page, page, 10)),
			fuzzOn(fuzzOp(fuzzOpZero, 4096*16+5, 100, 0)), fuzzOn(fuzzOp(fuzzOpRead, 4096*16, 5*page, 0))),
		// A misaligned hand-over: the install falls back to copying.
		fuzzOps(fuzzOp(fuzzOpWrite, 100, 2*page, 11), fuzzOp(fuzzOpMove, 50, 2*page+100, 3),
			fuzzOn(fuzzOp(fuzzOpRead, 50+3*256, 2*page+100, 0))),
		// Hand-overs in both directions over the same pages.
		fuzzOps(fuzzOp(fuzzOpWrite, 0, 2*page, 12), fuzzOp(fuzzOpMove, 0, 2*page, 0),
			fuzzOn(fuzzOp(fuzzOpWrite, 7, 9, 13)), fuzzOn(fuzzOp(fuzzOpMove, 0, 2*page, 0)),
			fuzzOp(fuzzOpRead, 0, 2*page, 0)),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		var st [2]fuzzStore
		for i := range st {
			st[i] = fuzzStore{NewSparseMem(), make([]byte, fuzzWindow), make([]bool, fuzzWindow/page)}
		}
		var held Payload // the last move's payload, and what it must hold
		var heldWant []byte
		checkHeld := func() {
			got := make([]byte, held.Len())
			held.ReadAt(got, 0)
			if !bytes.Equal(got, heldWant) {
				t.Fatal("a write after a hand-over reached the payload holding the shared pages")
			}
		}
		for ; len(ops) >= fuzzOpBytes; ops = ops[fuzzOpBytes:] {
			kind := ops[0] & 0xF % fuzzOpKinds
			s, other := &st[ops[0]>>4&1], &st[1-ops[0]>>4&1]
			addr := (int(ops[1]) | int(ops[2])<<8 | int(ops[3])<<16) % fuzzWindow
			n := (int(ops[4]) | int(ops[5])<<8 | int(ops[6])<<16) % (min(fuzzMaxLen, fuzzWindow-addr) + 1)
			fill := ops[7]
			switch kind {
			case fuzzOpWrite:
				data := make([]byte, n)
				for i := range data {
					data[i] = fill + byte(i)
				}
				s.s.WriteBytes(fuzzBase+uint64(addr), data)
				copy(s.ref[addr:], data)
				for pg := addr / page; n > 0 && pg <= (addr+n-1)/page; pg++ {
					s.live[pg] = true
				}
			case fuzzOpRead:
				got := bytes.Repeat([]byte{^fill}, n)
				s.s.ReadBytes(fuzzBase+uint64(addr), got)
				if !bytes.Equal(got, s.ref[addr:addr+n]) {
					t.Fatalf("ReadBytes(+%#x, %d) differs from the reference", addr, n)
				}
			case fuzzOpZero:
				s.s.Zero(fuzzBase+uint64(addr), int64(n))
				clear(s.ref[addr : addr+n])
				for pg := (addr + page - 1) / page; (pg+1)*page <= addr+n; pg++ {
					s.live[pg] = false
				}
			case fuzzOpMove:
				to := (addr + int(fill)*256) % (fuzzWindow - n + 1)
				if held.Len() > 0 {
					checkHeld()
				}
				held.Release()
				held = NewPages((fuzzBase+addr)%page, n)
				s.s.Share(fuzzBase+uint64(addr), held)
				other.s.Install(fuzzBase+uint64(to), held)
				heldWant = bytes.Clone(s.ref[addr : addr+n])
				aligned := (to-addr)%page == 0
				for pg := to / page; n > 0 && pg <= (to+n-1)/page; pg++ {
					if whole := pg*page >= to && (pg+1)*page <= to+n; whole && aligned {
						other.live[pg] = s.live[(pg*page-to+addr)/page]
					} else {
						other.live[pg] = true
					}
				}
				copy(other.ref[to:], heldWant)
			}
		}
		if held.Len() > 0 {
			checkHeld()
		}
		held.Release()
		st[0].check(t, "0")
		st[1].check(t, "1")
	})
}
