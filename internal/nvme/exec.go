package nvme

import (
	"encoding/binary"

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
func (d *Device) executeIO(c *command) {
	cmd := c.cmd
	if d.cmdObserver != nil {
		d.cmdObserver(c.q.id, cmd.CID, obs.StageTransfer, d.k.Now())
	}
	if cmd.PSDT != 0 {
		// SGL data pointers are not implemented (nor used by SNAcc).
		d.complete(c, StatusInvalidField, 0)
		return
	}
	if d.faultInjector != nil {
		if status := d.faultInjector(cmd); status != StatusSuccess {
			d.complete(c, status, 0)
			return
		}
	}
	if cmd.Opcode != OpRead && cmd.Opcode != OpWrite {
		d.complete(c, StatusInvalidOpcode, 0)
		return
	}
	total, off, status := d.validateRange(cmd)
	if status != StatusSuccess {
		d.complete(c, status, 0)
		return
	}
	c.total, c.off = total, off
	c.resolvePRPs()
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

// resolvePRPs produces the bus extents for the c.total-byte transfer
// described by PRP1/PRP2, fetching the PRP list over the fabric when the
// transfer spans more than two pages, and hands them to prpsResolved. This
// fetch is the transaction the SNAcc Streamer answers with on-the-fly
// computed entries (paper Figs. 2/3).
func (c *command) resolvePRPs() {
	cmd, total := c.cmd, c.total
	first := extent{addr: cmd.PRP1, len: PageSize - int64(cmd.PRP1%PageSize)}
	if first.len >= total {
		first.len = total
		c.runs = append(c.runs[:0], first)
		c.prpsResolved(StatusSuccess)
		return
	}
	remaining := total - first.len
	if remaining <= PageSize {
		// PRP2 points directly at the second (final) page.
		if cmd.PRP2%PageSize != 0 {
			c.prpsResolved(StatusInvalidField)
			return
		}
		c.runs = coalesce(append(c.runs[:0], first, extent{addr: cmd.PRP2, len: remaining}))
		c.prpsResolved(StatusSuccess)
		return
	}
	// PRP2 is a pointer to a PRP list. Entry count is bounded by MDTS
	// (2 MiB / 4 KiB = 512 entries), which fits one page when the list
	// starts page-aligned — both our Streamer and the SPDK driver model
	// build page-aligned lists, matching the paper's 1 MiB commands with
	// one 255-entry list.
	entries := int((remaining + PageSize - 1) / PageSize)
	if cmd.PRP2%8 != 0 || int64(cmd.PRP2%PageSize)+int64(entries*8) > PageSize {
		c.prpsResolved(StatusInvalidField)
		return
	}
	// The command owns the list buffer: the completer fills it before
	// prpList runs, and the extents copy the addresses out.
	c.runs = append(c.runs[:0], first)
	c.listBuf = ownedBuf(c.listBuf, entries*8)
	c.d.port.ReadCtrl(cmd.PRP2, int64(len(c.listBuf)), c.listBuf, c.stage.prpList)
}

// prpList turns the fetched PRP list into extents after the first page.
func (c *command) prpList() {
	c.check()
	left := c.total - c.runs[0].len
	for i := 0; i < len(c.listBuf)/8; i++ {
		addr := binary.LittleEndian.Uint64(c.listBuf[i*8:])
		if addr%PageSize != 0 {
			c.prpsResolved(StatusInvalidField)
			return
		}
		n := int64(PageSize)
		if n > left {
			n = left
		}
		c.runs = append(c.runs, extent{addr: addr, len: n})
		left -= n
	}
	c.runs = coalesce(c.runs)
	c.prpsResolved(StatusSuccess)
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

// prpsResolved starts the data transfer once the extents are known.
//
// A read is a NAND array read, then posted writes of the data into the PRP
// extents. Posted writes stream at link rate, which is why every SNAcc
// buffer variant reaches the full 6.9 GB/s sequential read bandwidth
// (§5.2).
//
// A write reserves write-buffer space, pulls the payload from the PRP
// extents with credit-limited reads (the P2P-sensitive path), then
// completes once buffered while the NAND array programs in the background.
func (c *command) prpsResolved(status uint16) {
	d := c.d
	if status != StatusSuccess {
		d.complete(c, status, 0)
		return
	}
	if c.cmd.Opcode == OpWrite {
		d.nand.ReserveBuffer(c.total, c.stage.buffered)
		return
	}
	// The DMA staging is a page list: the NAND read shares the media
	// pages at issue, and the target installs each posted write's pages
	// on delivery, so the list lets go once the last write has landed.
	if d.cfg.Functional {
		c.media = pcie.NewPages(int(c.off%PageSize), int(c.total))
	}
	d.nand.Read(c.off, c.total, c.media, c.stage.nandRead)
}

// nandRead posts the read data into the PRP extents once it has left the
// array.
func (c *command) nandRead() {
	c.check()
	c.outstanding = len(c.runs)
	var pos int64
	for _, r := range c.runs {
		data := c.media.Slice(int(pos), int(r.len))
		pos += r.len
		c.d.port.Write(r.addr, r.len, data, c.stage.extentDone)
	}
}

// buffered pulls the write payload from the PRP extents once write-buffer
// space is reserved. A page list like the read side: each PRP read chunk
// shares the staging pages at its completer, and Program installs them in
// the media store.
func (c *command) buffered() {
	c.check()
	if c.d.cfg.Functional {
		c.media = pcie.NewPages(int(c.off%PageSize), int(c.total))
	}
	c.outstanding = len(c.runs)
	var pos int64
	for _, r := range c.runs {
		buf := c.media.Slice(int(pos), int(r.len))
		pos += r.len
		c.d.port.Read(r.addr, r.len, buf, c.stage.extentDone)
	}
}

// extentDone completes the command after its last extent has moved.
func (c *command) extentDone() {
	c.check()
	c.outstanding--
	if c.outstanding > 0 {
		return
	}
	d := c.d
	if c.cmd.Opcode == OpWrite {
		d.nand.Program(c.off, c.total, c.media)
	}
	c.media.Release()
	c.media = pcie.Payload{}
	d.complete(c, StatusSuccess, 0)
}
