package nvme

import "snacc/internal/pcie"

// command is one fetched command on its way from dispatch to the delivery
// of its completion entry: the execution-gate waiter, the PRP walk, the
// NAND and DMA stages and the CQE write. Commands recycle through the
// device's free list instead of a closure chain per stage: each binds its
// stage methods to func values once, when it is first built, so handing a
// stage to the kernel, the fabric or the NAND model allocates nothing.
//
// The device owns a command from fetch until the last stage that touches
// it: the CQE write's delivery, or the discard, drop or loss that ends it
// without one. It goes back to the free list there, zeroed, so no payload
// view outlives it. Race builds check the contract: a stage firing on a
// released command, and a second release, panic; and release poisons the
// owned PRP-list buffer, so a stage that kept a view of it reads garbage.
type command struct {
	d   *Device
	q   *queuePair
	cmd Command

	// Completion, recorded at complete() and read by the stages that post
	// it; resume says which of them a parked completion re-enters.
	status uint16
	dw0    uint32
	resume func()

	// Data path: the transfer's size and media offset, its bus extents
	// and the PRP list being fetched (both backing arrays are kept across
	// recycling), the DMA staging pages and the extents still in flight.
	total       int64
	off         uint64
	runs        []extent
	listBuf     []byte
	media       pcie.Payload
	outstanding int

	cqe [CQESize]byte

	released bool
	stage    commandStages
}

// commandStages are a command's stage methods, bound to func values once.
type commandStages struct {
	execute, prpList, nandRead, buffered, extentDone, deliver, post, cqeSent func()
}

func (d *Device) getCommand(q *queuePair, cmd Command) *command {
	var c *command
	if n := len(d.cmdFree); n > 0 {
		c = d.cmdFree[n-1]
		d.cmdFree = d.cmdFree[:n-1]
		c.released = false
	} else {
		c = &command{d: d}
		c.stage = commandStages{execute: c.execute, prpList: c.prpList, nandRead: c.nandRead,
			buffered: c.buffered, extentDone: c.extentDone, deliver: c.deliver, post: c.postCQE, cqeSent: c.cqeSent}
	}
	c.q, c.cmd = q, cmd
	return c
}

// release zeroes c and returns it to the device's free list.
func (c *command) release() {
	if checkReleased && c.released {
		panic("nvme: command released twice")
	}
	*c = command{d: c.d, runs: c.runs[:0], listBuf: releaseBuf(c.listBuf), released: true, stage: c.stage}
	c.d.cmdFree = append(c.d.cmdFree, c)
}

func (c *command) check() {
	if checkReleased && c.released {
		panic("nvme: command stage fired on a released command")
	}
}

// sqeFetch is one batched SQE fetch in flight, recycled like a command,
// with the same race-build checks; its SQE buffer's backing array is kept
// across recycling and poisoned on release.
type sqeFetch struct {
	d           *Device
	q           *queuePair
	head, batch int
	buf         []byte
	released    bool
	doneFn      func()
}

func (d *Device) getFetch() *sqeFetch {
	if n := len(d.fetchFree); n > 0 {
		f := d.fetchFree[n-1]
		d.fetchFree = d.fetchFree[:n-1]
		f.released = false
		return f
	}
	f := &sqeFetch{d: d}
	f.doneFn = f.done
	return f
}

func (f *sqeFetch) release() {
	if checkReleased && f.released {
		panic("nvme: SQE fetch released twice")
	}
	*f = sqeFetch{d: f.d, buf: releaseBuf(f.buf), released: true, doneFn: f.doneFn}
	f.d.fetchFree = append(f.d.fetchFree, f)
}

func (f *sqeFetch) check() {
	if checkReleased && f.released {
		panic("nvme: SQE fetch completed after its release")
	}
}

// ownedBuf returns b resized to n bytes, reusing its backing array when it
// is large enough. The contents are undefined; the caller overwrites them.
func ownedBuf(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

// releaseBuf empties a recycled struct's owned buffer, keeping its backing
// array. Race builds fill the array with poisonByte first, so a reader that
// kept a view of the buffer past the release reads garbage instead of
// bytes that still happen to be right.
func releaseBuf(b []byte) []byte {
	b = b[:cap(b)]
	if checkReleased {
		for i := range b {
			b[i] = poisonByte
		}
	}
	return b[:0]
}

// poisonByte is what race builds fill a released buffer with.
const poisonByte = 0xA5
