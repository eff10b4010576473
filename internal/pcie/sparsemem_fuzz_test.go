package pcie

import (
	"bytes"
	"testing"
)

// Each fuzz op is 8 bytes: kind, a 3-byte little-endian address and a
// 3-byte length (both folded into the window), and a fill byte.
const (
	fuzzOpWrite = iota
	fuzzOpRead
	fuzzOpZero
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

func fuzzOps(ops ...[]byte) []byte { return bytes.Join(ops, nil) }

// FuzzSparseMem runs random WriteBytes, ReadBytes and Zero calls against a
// flat []byte reference: every read must match it, and Pages() must equal
// the number of pages the reference says are materialized (written since
// the last Zero that covered them whole).
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
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := NewSparseMem()
		ref := make([]byte, fuzzWindow)
		live := make([]bool, fuzzWindow/page)
		for ; len(ops) >= fuzzOpBytes; ops = ops[fuzzOpBytes:] {
			kind := ops[0] % fuzzOpKinds
			addr := (int(ops[1]) | int(ops[2])<<8 | int(ops[3])<<16) % fuzzWindow
			n := (int(ops[4]) | int(ops[5])<<8 | int(ops[6])<<16) % (min(fuzzMaxLen, fuzzWindow-addr) + 1)
			fill := ops[7]
			switch kind {
			case fuzzOpWrite:
				data := make([]byte, n)
				for i := range data {
					data[i] = fill + byte(i)
				}
				s.WriteBytes(fuzzBase+uint64(addr), data)
				copy(ref[addr:], data)
				for pg := addr / page; n > 0 && pg <= (addr+n-1)/page; pg++ {
					live[pg] = true
				}
			case fuzzOpRead:
				got := bytes.Repeat([]byte{^fill}, n)
				s.ReadBytes(fuzzBase+uint64(addr), got)
				if !bytes.Equal(got, ref[addr:addr+n]) {
					t.Fatalf("ReadBytes(+%#x, %d) differs from the reference", addr, n)
				}
			case fuzzOpZero:
				s.Zero(fuzzBase+uint64(addr), int64(n))
				clear(ref[addr : addr+n])
				for pg := (addr + page - 1) / page; (pg+1)*page <= addr+n; pg++ {
					live[pg] = false
				}
			}
		}
		got := make([]byte, fuzzWindow)
		s.ReadBytes(fuzzBase, got)
		if !bytes.Equal(got, ref) {
			t.Fatal("final read-back differs from the reference")
		}
		want := 0
		for _, l := range live {
			if l {
				want++
			}
		}
		if s.Pages() != want {
			t.Fatalf("Pages() = %d, want %d materialized", s.Pages(), want)
		}
	})
}
