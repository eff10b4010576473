package spdk

import (
	"encoding/binary"
	"fmt"

	"snacc/internal/nvme"
	"snacc/internal/sim"
)

// SplitBytes is the maximum payload per NVMe command, matching the paper's
// 1 MiB choice ("sufficient to saturate the available bandwidth", §4.2).
const SplitBytes = sim.MiB

// LBASize returns the namespace block size discovered at attach.
func (d *Driver) LBASize() int64 { return d.lbaSize }

// CapacityBlocks returns the namespace capacity discovered at attach.
func (d *Driver) CapacityBlocks() uint64 { return d.nsBlocks }

// MDTSBytes returns the controller's max data transfer size.
func (d *Driver) MDTSBytes() int64 { return d.mdtsBytes }

// QueueDepth returns the I/O queue depth.
func (d *Driver) QueueDepth() int { return d.cfg.QueueDepth }

// QueuePairs returns the number of I/O queue pairs in use.
func (d *Driver) QueuePairs() int { return len(d.ioQs) }

// CPU returns the data-path core, for utilization reporting (§6.3).
func (d *Driver) CPU() *sim.Server { return d.cpu }

// AllocBuffer reserves a page-aligned pinned buffer and returns its bus
// address.
func (d *Driver) AllocBuffer(n int64) uint64 {
	return d.host.Alloc(n, nvme.PageSize)
}

// prpPage manages a freelist of PRP-list pages.
func (d *Driver) allocPRPPage() uint64 {
	if n := len(d.prpPool); n > 0 {
		addr := d.prpPool[n-1]
		d.prpPool = d.prpPool[:n-1]
		return addr
	}
	return d.host.Alloc(nvme.PageSize, nvme.PageSize)
}

func (d *Driver) freePRPPage(addr uint64) { d.prpPool = append(d.prpPool, addr) }

// buildPRPs fills cmd's PRP entries for a transfer of n bytes at bufAddr
// (page aligned), writing a PRP list into host memory when needed. It
// returns the list page to free on completion (0 if none).
func (d *Driver) buildPRPs(cmd *nvme.Command, bufAddr uint64, n int64) uint64 {
	if bufAddr%nvme.PageSize != 0 {
		panic("spdk: data buffers must be page aligned")
	}
	cmd.PRP1 = bufAddr
	if n <= nvme.PageSize {
		return 0
	}
	if n <= 2*nvme.PageSize {
		cmd.PRP2 = bufAddr + nvme.PageSize
		return 0
	}
	pages := int((n + nvme.PageSize - 1) / nvme.PageSize)
	list := d.allocPRPPage()
	entries := make([]byte, (pages-1)*8)
	for i := 1; i < pages; i++ {
		binary.LittleEndian.PutUint64(entries[(i-1)*8:], bufAddr+uint64(i)*nvme.PageSize)
	}
	d.host.Mem.Store().WriteBytes(list-hostMemBase(d.host), entries)
	cmd.PRP2 = list
	return list
}

// io submits one (possibly split) I/O and invokes cb once every piece has
// completed.
func (d *Driver) io(op uint8, slba uint64, blocks uint32, bufAddr uint64, data []byte, cb func(error)) {
	total := int64(blocks) * d.lbaSize
	if total <= 0 {
		cb(fmt.Errorf("spdk: zero-length I/O"))
		return
	}
	split := int64(SplitBytes)
	if split > d.mdtsBytes {
		split = d.mdtsBytes
	}
	if d.cfg.Functional && data != nil && op == nvme.OpWrite {
		d.host.Mem.Store().WriteBytes(bufAddr-hostMemBase(d.host), data)
	}
	pending := 0
	var firstErr error
	finished := false
	oneDone := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
		pending--
		if finished && pending == 0 {
			if d.cfg.Functional && data != nil && op == nvme.OpRead && firstErr == nil {
				d.host.Mem.Store().ReadBytes(bufAddr-hostMemBase(d.host), data)
			}
			cb(firstErr)
		}
	}
	var off int64
	for off < total {
		n := split
		if n > total-off {
			n = total - off
		}
		cmd := nvme.Command{
			Opcode: op,
			NSID:   1,
		}
		cmd.SetSLBA(slba + uint64(off/d.lbaSize))
		cmd.SetNLB(uint32(n/d.lbaSize) - 1)
		list := d.buildPRPs(&cmd, bufAddr+uint64(off), n)
		pending++
		d.io1(cmd, list, oneDone)
		off += n
	}
	finished = true
	if pending == 0 {
		cb(firstErr)
	}
}

func (d *Driver) io1(cmd nvme.Command, list uint64, done func(error)) {
	q := d.ioQs[d.nextQP]
	d.nextQP = (d.nextQP + 1) % len(d.ioQs)
	q.submit(cmd, func(cpl nvme.Completion) {
		if list != 0 {
			d.freePRPPage(list)
		}
		if cpl.Status != nvme.StatusSuccess {
			done(&nvme.StatusError{Op: cmd.Opcode, CID: cpl.CID, Status: cpl.Status})
			return
		}
		done(nil)
	})
}

// ReadAsync reads blocks logical blocks starting at slba into the pinned
// buffer at bufAddr; data (optional) receives content in functional mode.
func (d *Driver) ReadAsync(slba uint64, blocks uint32, bufAddr uint64, data []byte, cb func(error)) {
	d.io(nvme.OpRead, slba, blocks, bufAddr, data, cb)
}

// WriteAsync writes blocks logical blocks starting at slba from the pinned
// buffer at bufAddr; data (optional) provides content in functional mode.
func (d *Driver) WriteAsync(slba uint64, blocks uint32, bufAddr uint64, data []byte, cb func(error)) {
	d.io(nvme.OpWrite, slba, blocks, bufAddr, data, cb)
}

// Read is the blocking form of ReadAsync.
func (d *Driver) Read(p *sim.Proc, slba uint64, blocks uint32, bufAddr uint64, data []byte) error {
	ch := sim.NewChan[error](d.k, 1)
	d.ReadAsync(slba, blocks, bufAddr, data, func(err error) { ch.TryPut(err) })
	return ch.Get(p)
}

// Write is the blocking form of WriteAsync.
func (d *Driver) Write(p *sim.Proc, slba uint64, blocks uint32, bufAddr uint64, data []byte) error {
	ch := sim.NewChan[error](d.k, 1)
	d.WriteAsync(slba, blocks, bufAddr, data, func(err error) { ch.TryPut(err) })
	return ch.Get(p)
}
