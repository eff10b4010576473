package nvme

import "encoding/binary"

// Write Zeroes (0x08) and Dataset Management / deallocate (0x09): the
// remaining I/O commands a block stack issues against a real 990 PRO.
// Deallocated ranges read back as zeros, which the model implements by
// dropping the range's pages from the media store (SparseMem.Zero), so the
// host cost does not grow with the range; both complete quickly
// (metadata-only on the device side) with a small firmware cost.

// I/O opcodes (extension of the core set in spec.go).
const (
	OpWriteZeroes uint8 = 0x08
	OpDatasetMgmt uint8 = 0x09
)

// DSM range descriptor: 16 bytes — context attributes, length in LBAs,
// starting LBA.
const dsmRangeBytes = 16

// DSMRange is one deallocation extent.
type DSMRange struct {
	SLBA uint64
	NLB  uint32
}

// MarshalDSMRanges encodes descriptors for the command's PRP buffer.
func MarshalDSMRanges(ranges []DSMRange) []byte {
	b := make([]byte, len(ranges)*dsmRangeBytes)
	for i, r := range ranges {
		binary.LittleEndian.PutUint32(b[i*dsmRangeBytes+4:], r.NLB)
		binary.LittleEndian.PutUint64(b[i*dsmRangeBytes+8:], r.SLBA)
	}
	return b
}

// executeWriteZeroes clears [SLBA, SLBA+NLB] without a data transfer.
func (d *Device) executeWriteZeroes(q *queuePair, cmd Command) {
	total, off, status := d.validateRange(cmd)
	if status != StatusSuccess {
		d.complete(q, cmd, status, 0)
		return
	}
	if d.cfg.Functional {
		d.nand.Store().Zero(off, total)
	}
	// Metadata-only on the device: a mapping-table update.
	d.k.After(2*d.cfg.FrontEndWriteCost, func() {
		d.complete(q, cmd, StatusSuccess, 0)
	})
}

// executeDatasetMgmt handles deallocate: CDW10 holds the 0-based range
// count; CDW11 bit 2 (AD) requests deallocation; the range list arrives via
// PRP1.
func (d *Device) executeDatasetMgmt(q *queuePair, cmd Command) {
	if cmd.NSID != 1 {
		d.complete(q, cmd, StatusInvalidNSID, 0)
		return
	}
	nr := int(cmd.CDW10&0xFF) + 1
	if cmd.CDW11&(1<<2) == 0 {
		// Only the deallocate attribute is modeled; hints are accepted and
		// ignored, as real firmware does.
		d.complete(q, cmd, StatusSuccess, 0)
		return
	}
	buf := make([]byte, nr*dsmRangeBytes)
	d.port.ReadCtrl(cmd.PRP1, int64(len(buf)), buf, func() {
		maxLBA := uint64(d.cfg.NamespaceBytes / d.cfg.LBASize)
		for i := 0; i < nr; i++ {
			nlb := binary.LittleEndian.Uint32(buf[i*dsmRangeBytes+4:])
			slba := binary.LittleEndian.Uint64(buf[i*dsmRangeBytes+8:])
			// Compare in LBA space so huge SLBAs cannot overflow the byte
			// arithmetic.
			if slba >= maxLBA || uint64(nlb) > maxLBA-slba {
				d.complete(q, cmd, StatusLBAOutOfRange, 0)
				return
			}
			bytes := int64(nlb) * d.cfg.LBASize
			off := slba * uint64(d.cfg.LBASize)
			if d.cfg.Functional {
				d.nand.Store().Zero(off, bytes)
			}
			d.deallocated += bytes
		}
		d.k.After(d.cfg.FrontEndWriteCost, func() {
			d.complete(q, cmd, StatusSuccess, 0)
		})
	})
}

// DeallocatedBytes reports the total trimmed volume.
func (d *Device) DeallocatedBytes() int64 { return d.deallocated }
