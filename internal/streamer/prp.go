package streamer

import (
	"fmt"

	"snacc/internal/nvme"
	"snacc/internal/pcie"
	"snacc/internal/sim"
)

// On-the-fly PRP list synthesis (§4.4). Because each command's payload is
// contiguous in the staging buffer, the n-th PRP entry is just
// base + n × 4096 — so instead of materializing PRP lists in memory, the
// Streamer computes entries when the NVMe controller reads them:
//
//   - URAM variant (Figure 2): the 4 MiB address space is doubled and bit 22
//     of the second PRP entry is set, steering the controller's list read
//     into the shadow half. The shadow address encodes the second data page
//     and the offset within the list.
//
//   - DRAM variants (Figure 3): doubling 128 MiB would be wasteful, so the
//     PRP2 pointer encodes the command ID into a small separate window, and
//     a register file indexed by the command ID holds the second data
//     page's position. The host-DRAM flavor additionally walks the 4 MiB
//     chunk table, the "overhead in address calculations" of §4.3.

// prpRegVal is one register-file entry: where the command's second payload
// page lives.
type prpRegVal struct {
	secondPageOff int64
	isWrite       bool
	valid         bool
}

// prpPointer produces the PRP2 value for a > 8 KiB command and, for the
// DRAM variants, loads the register file.
func (s *Streamer) prpPointer(slot int, isWrite bool, bufOff int64) uint64 {
	if s.cfg.Variant == URAM {
		return s.cfg.WindowBase + uint64((bufOff+nvme.PageSize)|PRPShadowBit)
	}
	s.prpReg[slot] = prpRegVal{secondPageOff: bufOff + nvme.PageSize, isWrite: isWrite, valid: true}
	return s.cfg.WindowBase + uint64(s.lo.prpOff) + uint64(slot)*nvme.PageSize
}

// prpWindow answers the controller's PRP-list reads with computed entries.
type prpWindow struct{ s *Streamer }

const prpComputeLatency = 50 * sim.Nanosecond

func (w *prpWindow) CompleteRead(addr uint64, n int64, dst pcie.Payload, done func()) {
	s := w.s
	if n%8 != 0 {
		panic("streamer: PRP list read not entry-aligned")
	}
	lat := prpComputeLatency
	if !dst.IsNil() {
		var entry [8]byte
		rel := int64(addr - s.cfg.WindowBase)
		if s.cfg.Variant == URAM {
			linear := rel &^ PRPShadowBit
			secondPage := linear &^ (nvme.PageSize - 1)
			first := (linear & (nvme.PageSize - 1)) / 8
			for j := int64(0); j < n/8; j++ {
				putLE64(entry[:], s.cfg.WindowBase+uint64(secondPage+(first+j)*nvme.PageSize))
				dst.WriteAt(entry[:], int(j*8))
			}
		} else {
			winRel := rel - s.lo.prpOff
			slot := int(winRel / nvme.PageSize)
			first := (winRel % nvme.PageSize) / 8
			reg := s.prpReg[slot]
			if !reg.valid {
				panic(fmt.Sprintf("streamer: PRP window read for idle slot %d", slot))
			}
			for j := int64(0); j < n/8; j++ {
				off := reg.secondPageOff + (first+j)*nvme.PageSize
				putLE64(entry[:], s.bufPhys(reg.isWrite, off))
				dst.WriteAt(entry[:], int(j*8))
			}
			if s.cfg.Variant == HostDRAM {
				lat += s.cfg.AddressCalcOverhead
			}
		}
	}
	s.k.After(lat, done)
}

func (w *prpWindow) CompleteWrite(addr uint64, n int64, data pcie.Payload) {
	panic("streamer: PRP window is read-only")
}

func putLE64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}
