package pcie

import (
	"fmt"
	"sort"
)

// RangeRouter is a Completer that dispatches transactions to sub-completers
// by address range — the decode logic of a device exposing several
// functional windows inside one BAR (the FPGA card routes its BAR between
// NVMe Streamer buffers, PRP windows, queue regions, and TaPaSCo registers).
type RangeRouter struct {
	ranges []routedRange
}

type routedRange struct {
	base uint64
	size int64
	c    Completer
}

// AddRange routes [base, base+size) to c. Overlaps are rejected.
func (r *RangeRouter) AddRange(base uint64, size int64, c Completer) {
	if size <= 0 {
		panic("pcie: RangeRouter range must have positive size")
	}
	for _, rr := range r.ranges {
		if base < rr.base+uint64(rr.size) && rr.base < base+uint64(size) {
			panic(fmt.Sprintf("pcie: RangeRouter overlap at [%#x,+%#x)", base, size))
		}
	}
	r.ranges = append(r.ranges, routedRange{base: base, size: size, c: c})
	sort.Slice(r.ranges, func(i, j int) bool { return r.ranges[i].base < r.ranges[j].base })
}

func (r *RangeRouter) lookup(addr uint64, n int64) Completer {
	lo, hi := 0, len(r.ranges)
	for lo < hi {
		mid := (lo + hi) / 2
		rr := r.ranges[mid]
		switch {
		case addr < rr.base:
			hi = mid
		case addr >= rr.base+uint64(rr.size):
			lo = mid + 1
		default:
			if addr+uint64(n) > rr.base+uint64(rr.size) {
				panic(fmt.Sprintf("pcie: access [%#x,+%#x) crosses window boundary", addr, n))
			}
			return rr.c
		}
	}
	panic(fmt.Sprintf("pcie: no window decodes address %#x", addr))
}

// CompleteRead implements Completer.
func (r *RangeRouter) CompleteRead(addr uint64, n int64, dst Payload, done func()) {
	r.lookup(addr, n).CompleteRead(addr, n, dst, done)
}

// CompleteWrite implements Completer.
func (r *RangeRouter) CompleteWrite(addr uint64, n int64, data Payload) {
	r.lookup(addr, n).CompleteWrite(addr, n, data)
}
