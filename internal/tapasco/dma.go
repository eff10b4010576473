package tapasco

import (
	"fmt"

	"snacc/internal/memmodel"
	"snacc/internal/pcie"
	"snacc/internal/sim"
)

// DMAEngine models TaPaSCo's platform DMA engine (§2.1: the toolchain
// "automatically generates platform-specific infrastructure, such as an
// interrupt controller and a DMA engine"): a card-resident mover between
// host memory and card DRAM, programmed through descriptor registers in
// the card BAR and signalling completion with the same MSI path as the PE
// slots.
type DMAEngine struct {
	pl   *Platform
	base uint64
	slot int // interrupt vector

	hostAddr uint64
	devOff   uint64
	length   uint64
	// direction: 0 = host → card DRAM, 1 = card DRAM → host.
	dir  uint32
	busy bool

	kick *sim.Chan[struct{}]

	transfers  int64
	bytesMoved int64
}

// DMA register offsets.
const (
	dmaRegHostLo = 0x00
	dmaRegHostHi = 0x04
	dmaRegDevLo  = 0x08
	dmaRegDevHi  = 0x0C
	dmaRegLenLo  = 0x10
	dmaRegLenHi  = 0x14
	dmaRegCtrl   = 0x18 // bit0 start, bit1 direction
	dmaWindow    = 4096
)

// AddDMAEngine instantiates the engine and maps its register window.
func (pl *Platform) AddDMAEngine() *DMAEngine {
	e := &DMAEngine{
		pl:   pl,
		base: pl.AllocWindow(dmaWindow),
		slot: -1, // assigned by NewRuntime, after the PE slots
		kick: sim.NewChan[struct{}](pl.K, 1),
	}
	pl.Router.AddRange(e.base, dmaWindow, (*dmaRegs)(e))
	pl.dma = e
	pl.K.Spawn("tapasco.dma", e.loop)
	return e
}

// Transfers and BytesMoved report engine statistics.
func (e *DMAEngine) Transfers() int64  { return e.transfers }
func (e *DMAEngine) BytesMoved() int64 { return e.bytesMoved }

// loop executes queued descriptors: the engine reads or writes host memory
// over PCIe in MaxReadRequest-sized bursts while accessing card DRAM
// locally.
func (e *DMAEngine) loop(p *sim.Proc) {
	p.SetDaemon(true)
	for {
		e.kick.Get(p)
		n := int64(e.length)
		if e.dir == 0 {
			// Host → card DRAM: non-posted reads of host memory, then the
			// payload lands in DRAM.
			e.pl.Card.ReadB(p, e.hostAddr, n, nil)
			memmodel.WriteB(p, e.pl.DRAM, e.devOff, n, nil)
		} else {
			// Card DRAM → host: local read, posted writes toward the host.
			memmodel.ReadB(p, e.pl.DRAM, e.devOff, n, nil)
			e.pl.Card.WriteB(p, e.hostAddr, n, nil)
		}
		e.transfers++
		e.bytesMoved += n
		e.busy = false
		e.pl.raiseInterrupt(e.slot)
	}
}

// dmaRegs decodes the engine's register window.
type dmaRegs DMAEngine

// CompleteWrite implements pcie.Completer.
func (r *dmaRegs) CompleteWrite(addr uint64, n int64, payload pcie.Payload) {
	e := (*DMAEngine)(r)
	data := payload.Bytes()
	if data == nil {
		panic("tapasco: DMA register write requires data")
	}
	v := le32(data)
	switch addr - e.base {
	case dmaRegHostLo:
		e.hostAddr = (e.hostAddr &^ 0xFFFFFFFF) | uint64(v)
	case dmaRegHostHi:
		e.hostAddr = (e.hostAddr & 0xFFFFFFFF) | uint64(v)<<32
	case dmaRegDevLo:
		e.devOff = (e.devOff &^ 0xFFFFFFFF) | uint64(v)
	case dmaRegDevHi:
		e.devOff = (e.devOff & 0xFFFFFFFF) | uint64(v)<<32
	case dmaRegLenLo:
		e.length = (e.length &^ 0xFFFFFFFF) | uint64(v)
	case dmaRegLenHi:
		e.length = (e.length & 0xFFFFFFFF) | uint64(v)<<32
	case dmaRegCtrl:
		if v&1 != 0 {
			if e.busy {
				panic("tapasco: DMA started while busy")
			}
			e.busy = true
			e.dir = (v >> 1) & 1
			e.kick.TryPut(struct{}{})
		}
	default:
		panic(fmt.Sprintf("tapasco: write to unmodeled DMA register %#x", addr-e.base))
	}
}

// CompleteRead implements pcie.Completer.
func (r *dmaRegs) CompleteRead(addr uint64, n int64, dst pcie.Payload, done func()) {
	e := (*DMAEngine)(r)
	var v uint32
	if addr-e.base == dmaRegCtrl && e.busy {
		v = 1
	}
	putReg(dst, v)
	e.pl.K.After(100*sim.Nanosecond, done)
}

// ---- runtime-level memory management ----

// AllocDevice reserves card DRAM for application buffers and returns its
// device offset (tapasco::alloc).
func (rt *Runtime) AllocDevice(n int64) uint64 {
	return rt.pl.ReserveDRAM(n)
}

// CopyToDevice moves n bytes from host memory to card DRAM through the DMA
// engine (tapasco::copy_to), blocking until the completion interrupt.
func (rt *Runtime) CopyToDevice(p *sim.Proc, hostAddr, devOff uint64, n int64) {
	rt.dmaTransfer(p, hostAddr, devOff, n, 0)
}

// CopyFromDevice moves n bytes from card DRAM to host memory.
func (rt *Runtime) CopyFromDevice(p *sim.Proc, hostAddr, devOff uint64, n int64) {
	rt.dmaTransfer(p, hostAddr, devOff, n, 1)
}

func (rt *Runtime) dmaTransfer(p *sim.Proc, hostAddr, devOff uint64, n int64, dir uint32) {
	e := rt.pl.dma
	if e == nil {
		panic("tapasco: no DMA engine composed (Platform.AddDMAEngine)")
	}
	h := rt.pl.Host.Port
	ch := sim.NewChan[struct{}](rt.pl.K, 1)
	rt.waiters[e.slot] = ch
	h.WriteB(p, e.base+dmaRegHostLo, 4, le32b(uint32(hostAddr)))
	h.WriteB(p, e.base+dmaRegHostHi, 4, le32b(uint32(hostAddr>>32)))
	h.WriteB(p, e.base+dmaRegDevLo, 4, le32b(uint32(devOff)))
	h.WriteB(p, e.base+dmaRegDevHi, 4, le32b(uint32(devOff>>32)))
	h.WriteB(p, e.base+dmaRegLenLo, 4, le32b(uint32(n)))
	h.WriteB(p, e.base+dmaRegLenHi, 4, le32b(uint32(n>>32)))
	h.WriteB(p, e.base+dmaRegCtrl, 4, le32b(1|dir<<1))
	ch.Get(p)
	delete(rt.waiters, e.slot)
}
