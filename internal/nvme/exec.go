package nvme

import (
	"encoding/binary"

	"snacc/internal/bufpool"
	"snacc/internal/obs"
	"snacc/internal/pcie"
	"snacc/internal/sim"
)

// MaxTransferBytes is the device's MDTS (2 MiB with 4 KiB pages).
const MaxTransferBytes = 2 * sim.MiB

// extent is one physically contiguous data run on the bus.
type extent struct {
	addr uint64
	len  int64
}

// executeIO runs one I/O command to completion. Controller-level faults
// (crash/hang/removal) are evaluated in complete(), not here: the device
// overlaps up to ExecContexts executions, so an execution-start counter
// could fire before ANY command of a replayed window retires and a
// recurring crash rule would livelock the recovery ladder. Counting
// completions guarantees N-1 commands survive each crash-every-N episode.
func (d *Device) executeIO(q *queuePair, cmd Command) {
	if d.cmdObserver != nil {
		d.cmdObserver(q.id, cmd.CID, obs.StageTransfer, d.k.Now())
	}
	if cmd.PSDT != 0 {
		// SGL data pointers are not implemented (nor used by SNAcc).
		d.complete(q, cmd, StatusInvalidField, 0)
		return
	}
	if d.faultInjector != nil {
		if status := d.faultInjector(cmd); status != StatusSuccess {
			d.complete(q, cmd, status, 0)
			return
		}
	}
	switch cmd.Opcode {
	case OpFlush:
		d.nand.Flush(func() { d.complete(q, cmd, StatusSuccess, 0) })
	case OpRead:
		d.executeRead(q, cmd)
	case OpWrite:
		d.executeWrite(q, cmd)
	case OpWriteZeroes:
		d.executeWriteZeroes(q, cmd)
	case OpDatasetMgmt:
		d.executeDatasetMgmt(q, cmd)
	default:
		d.complete(q, cmd, StatusInvalidOpcode, 0)
	}
}

// validateRange checks namespace and LBA bounds, returning the transfer size
// in bytes, the media byte offset, and a status.
func (d *Device) validateRange(cmd Command) (total int64, off uint64, status uint16) {
	if cmd.NSID != 1 {
		return 0, 0, StatusInvalidNSID
	}
	total = int64(cmd.NLB()+1) * d.cfg.LBASize
	if total > MaxTransferBytes {
		return 0, 0, StatusInvalidField
	}
	// Bounds-check in LBA space: a huge SLBA must not overflow the byte
	// arithmetic and slip past the check.
	maxLBA := uint64(d.cfg.NamespaceBytes / d.cfg.LBASize)
	slba := cmd.SLBA()
	if slba >= maxLBA || uint64(cmd.NLB())+1 > maxLBA-slba {
		return 0, 0, StatusLBAOutOfRange
	}
	return total, slba * uint64(d.cfg.LBASize), StatusSuccess
}

// resolvePRPs produces the bus extents for a transfer of total bytes
// described by PRP1/PRP2, fetching the PRP list over the fabric when the
// transfer spans more than two pages. This fetch is the transaction the
// SNAcc Streamer answers with on-the-fly computed entries (paper Figs. 2/3).
func (d *Device) resolvePRPs(cmd Command, total int64, fn func(runs []extent, status uint16)) {
	first := extent{addr: cmd.PRP1, len: PageSize - int64(cmd.PRP1%PageSize)}
	if first.len >= total {
		first.len = total
		fn(coalesce([]extent{first}), StatusSuccess)
		return
	}
	remaining := total - first.len
	if remaining <= PageSize {
		// PRP2 points directly at the second (final) page.
		if cmd.PRP2%PageSize != 0 {
			fn(nil, StatusInvalidField)
			return
		}
		fn(coalesce([]extent{first, {addr: cmd.PRP2, len: remaining}}), StatusSuccess)
		return
	}
	// PRP2 is a pointer to a PRP list. Entry count is bounded by MDTS
	// (2 MiB / 4 KiB = 512 entries), which fits one page when the list
	// starts page-aligned — both our Streamer and the SPDK driver model
	// build page-aligned lists, matching the paper's 1 MiB commands with
	// one 255-entry list.
	entries := int((remaining + PageSize - 1) / PageSize)
	if cmd.PRP2%8 != 0 || int64(cmd.PRP2%PageSize)+int64(entries*8) > PageSize {
		fn(nil, StatusInvalidField)
		return
	}
	// The list buffer recycles through the pool: the completer fills it
	// before the callback runs, and the extents below copy the addresses out.
	listBuf := bufpool.Get(entries * 8)
	d.port.ReadCtrl(cmd.PRP2, int64(len(listBuf)), listBuf, func() {
		defer bufpool.Put(listBuf)
		runs := make([]extent, 0, entries+1)
		runs = append(runs, first)
		left := remaining
		for i := 0; i < entries; i++ {
			addr := binary.LittleEndian.Uint64(listBuf[i*8:])
			if addr%PageSize != 0 {
				fn(nil, StatusInvalidField)
				return
			}
			n := int64(PageSize)
			if n > left {
				n = left
			}
			runs = append(runs, extent{addr: addr, len: n})
			left -= n
		}
		fn(coalesce(runs), StatusSuccess)
	})
}

// coalesce merges bus-adjacent extents so the DMA engine issues long
// transfers when PRPs are contiguous — which they always are for the
// Streamer's buffers and usually are for SPDK's.
func coalesce(runs []extent) []extent {
	out := runs[:0]
	for _, r := range runs {
		if len(out) > 0 && out[len(out)-1].addr+uint64(out[len(out)-1].len) == r.addr {
			out[len(out)-1].len += r.len
			continue
		}
		out = append(out, r)
	}
	return out
}

// executeRead services an NVMe read: NAND array read, then posted writes of
// the data into the PRP extents. Posted writes stream at link rate, which is
// why every SNAcc buffer variant reaches the full 6.9 GB/s sequential read
// bandwidth (§5.2).
func (d *Device) executeRead(q *queuePair, cmd Command) {
	total, off, status := d.validateRange(cmd)
	if status != StatusSuccess {
		d.complete(q, cmd, status, 0)
		return
	}
	d.accountIO(OpRead, total)
	d.resolvePRPs(cmd, total, func(runs []extent, status uint16) {
		if status != StatusSuccess {
			d.complete(q, cmd, status, 0)
			return
		}
		// The DMA staging is a page list: the NAND read shares the media
		// pages at issue, and the target installs each posted write's pages
		// on delivery, so the list lets go once the last write has landed.
		var media pcie.Payload
		if d.cfg.Functional {
			media = pcie.NewPages(int(off%PageSize), int(total))
		}
		d.nand.Read(off, total, media, func() {
			outstanding := len(runs)
			var pos int64
			for _, r := range runs {
				data := media.Slice(int(pos), int(r.len))
				pos += r.len
				d.port.Write(r.addr, r.len, data, func() {
					outstanding--
					if outstanding == 0 {
						media.Release()
						d.complete(q, cmd, StatusSuccess, 0)
					}
				})
			}
		})
	})
}

// executeWrite services an NVMe write: reserve write-buffer space, pull the
// payload from the PRP extents with credit-limited reads (the P2P-sensitive
// path), then complete once buffered while the NAND array programs in the
// background.
func (d *Device) executeWrite(q *queuePair, cmd Command) {
	total, off, status := d.validateRange(cmd)
	if status != StatusSuccess {
		d.complete(q, cmd, status, 0)
		return
	}
	d.accountIO(OpWrite, total)
	d.resolvePRPs(cmd, total, func(runs []extent, status uint16) {
		if status != StatusSuccess {
			d.complete(q, cmd, status, 0)
			return
		}
		d.nand.ReserveBuffer(total, func() {
			// A page list like the read side: each PRP read chunk shares
			// the staging pages at its completer, and Program installs
			// them in the media store.
			var media pcie.Payload
			if d.cfg.Functional {
				media = pcie.NewPages(int(off%PageSize), int(total))
			}
			outstanding := len(runs)
			var pos int64
			for _, r := range runs {
				buf := media.Slice(int(pos), int(r.len))
				pos += r.len
				d.port.Read(r.addr, r.len, buf, func() {
					outstanding--
					if outstanding == 0 {
						d.nand.Program(off, total, media)
						media.Release()
						d.complete(q, cmd, StatusSuccess, 0)
					}
				})
			}
		})
	})
}
