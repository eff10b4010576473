package tapasco

import (
	"fmt"

	"snacc/internal/pcie"
	"snacc/internal/sim"
)

// This file models the general-purpose half of TaPaSCo that SNAcc plugs
// into (§2.1): user accelerators ("Processing Elements") composed into
// slots with a standard AXI4-Lite control interface, an interrupt
// controller signalling job completion to the host, and the runtime that
// "automatically manages data transfers and PE execution, requiring only a
// few lines of user code".

// PE is a user accelerator kernel. Run executes one job given the argument
// registers and returns the value for the return register; it runs as a
// simulation process and may consume simulated time.
type PE interface {
	Name() string
	Run(p *sim.Proc, args []uint64) uint64
}

// PEFunc adapts a plain function to the PE interface.
type PEFunc struct {
	Label string
	Fn    func(p *sim.Proc, args []uint64) uint64
}

// Name implements PE.
func (f PEFunc) Name() string { return f.Label }

// Run implements PE.
func (f PEFunc) Run(p *sim.Proc, args []uint64) uint64 { return f.Fn(p, args) }

// Control register layout of one PE slot window (4 KiB), following the
// TaPaSCo/HLS convention.
const (
	peRegCtrl   = 0x00 // write 1: start; read bit1: done
	peRegIER    = 0x04 // interrupt enable
	peRegRetLo  = 0x10
	peRegRetHi  = 0x14
	peRegArgs   = 0x20 // 64-bit argument registers, 8 bytes apart
	peSlotBytes = 4096
	peMaxArgs   = 16
)

// peSlot is one composed PE instance with its control window.
type peSlot struct {
	pl     *Platform
	id     int
	kernel uint32
	pe     PE
	base   uint64

	args       [peMaxArgs]uint64
	retVal     uint64
	busy       bool
	done       bool
	intrEna    bool
	launchHeld bool

	startCh *sim.Chan[struct{}]
}

// Compose instantiates count copies of the PE produced by factory under
// kernel ID kid, allocating control windows in the card BAR and starting
// the slot processes — the equivalent of TaPaSCo's composition step.
func (pl *Platform) Compose(kid uint32, count int, factory func(i int) PE) {
	if pl.slots == nil {
		pl.slots = make(map[uint32][]*peSlot)
	}
	for i := 0; i < count; i++ {
		s := &peSlot{
			pl:      pl,
			id:      len(pl.allSlots),
			kernel:  kid,
			pe:      factory(i),
			base:    pl.AllocWindow(peSlotBytes),
			startCh: sim.NewChan[struct{}](pl.K, 1),
		}
		pl.Router.AddRange(s.base, peSlotBytes, (*peSlotRegs)(s))
		pl.slots[kid] = append(pl.slots[kid], s)
		pl.allSlots = append(pl.allSlots, s)
		pl.K.Spawn(fmt.Sprintf("pe%d.%s", s.id, s.pe.Name()), s.loop)
	}
}

// loop waits for start commands and executes jobs.
func (s *peSlot) loop(p *sim.Proc) {
	p.SetDaemon(true)
	for {
		s.startCh.Get(p)
		args := make([]uint64, peMaxArgs)
		copy(args, s.args[:])
		s.retVal = s.pe.Run(p, args)
		s.busy = false
		s.done = true
		if s.intrEna {
			s.pl.raiseInterrupt(s.id)
		}
	}
}

// peSlotRegs decodes the slot's control window.
type peSlotRegs peSlot

// CompleteWrite implements pcie.Completer for register writes.
func (r *peSlotRegs) CompleteWrite(addr uint64, n int64, payload pcie.Payload) {
	s := (*peSlot)(r)
	data := payload.Bytes()
	off := addr - s.base
	if data == nil {
		panic("tapasco: PE register write requires data")
	}
	switch {
	case off == peRegCtrl:
		if le32(data)&1 != 0 {
			if s.busy {
				panic(fmt.Sprintf("tapasco: PE slot %d started while busy", s.id))
			}
			s.busy = true
			s.done = false
			s.startCh.TryPut(struct{}{})
		}
	case off == peRegIER:
		s.intrEna = le32(data)&1 != 0
	case off >= peRegArgs && off < peRegArgs+peMaxArgs*8:
		idx := (off - peRegArgs) / 8
		if n == 8 {
			s.args[idx] = le64(data)
		} else {
			// 32-bit half-writes, low then high.
			if (off-peRegArgs)%8 == 0 {
				s.args[idx] = (s.args[idx] &^ 0xFFFFFFFF) | uint64(le32(data))
			} else {
				s.args[(off-peRegArgs-4)/8] = (s.args[(off-peRegArgs-4)/8] & 0xFFFFFFFF) | uint64(le32(data))<<32
			}
		}
	default:
		panic(fmt.Sprintf("tapasco: write to unmodeled PE register %#x", off))
	}
}

// CompleteRead implements pcie.Completer for register reads.
func (r *peSlotRegs) CompleteRead(addr uint64, n int64, dst pcie.Payload, done func()) {
	s := (*peSlot)(r)
	var v uint32
	switch addr - s.base {
	case peRegCtrl:
		if s.done {
			v |= 2
		}
		if s.busy {
			v |= 1
		}
	case peRegRetLo:
		v = uint32(s.retVal)
	case peRegRetHi:
		v = uint32(s.retVal >> 32)
	}
	putReg(dst, v)
	s.pl.K.After(100*sim.Nanosecond, done)
}

// putReg fills up to the first four bytes of a register read's dst (empty
// for timing-only) with the little-endian bytes of the 32-bit value v.
func putReg(dst pcie.Payload, v uint32) {
	b := [4]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)}
	dst.WriteAt(b[:min(len(b), dst.Len())], 0)
}

// ---- interrupt controller ----

// Interrupts are delivered MSI-style: the card posts a write to a per-slot
// host address; the host runtime watches that page.
const msiBytes = 4

// raiseInterrupt posts the slot's completion signal toward the host.
func (pl *Platform) raiseInterrupt(slot int) {
	if pl.msiBase == 0 {
		panic("tapasco: interrupt raised before a runtime attached")
	}
	pl.Card.Write(pl.msiBase+uint64(slot*msiBytes), msiBytes, pcie.Bytes(le32b(1)), nil)
}

// ---- runtime ----

// Runtime is the host-side TaPaSCo runtime: it discovers the composition,
// fields completion interrupts, and launches jobs.
type Runtime struct {
	pl      *Platform
	waiters map[int]*sim.Chan[struct{}]
}

// NewRuntime attaches the runtime: it allocates the MSI page in host
// memory, grants the card access, and installs the interrupt handler.
func NewRuntime(pl *Platform) *Runtime {
	rt := &Runtime{pl: pl, waiters: make(map[int]*sim.Chan[struct{}])}
	if pl.dma != nil {
		// The DMA engine's interrupt vector follows the PE slots.
		pl.dma.slot = len(pl.allSlots)
	}
	pl.msiBase = pl.Host.Alloc(int64(len(pl.allSlots)+1)*msiBytes, 4096)
	pl.Fabric.IOMMU().Grant(pl.cfg.CardName, pl.msiBase, int64(len(pl.allSlots)+1)*msiBytes)
	// The kernel driver pins application buffers; the card may DMA host
	// memory from then on.
	pl.Fabric.IOMMU().Grant(pl.cfg.CardName, pl.cfg.Host.MemBase, pl.cfg.Host.MemSize)
	pl.Host.Mem.Watch(pl.msiBase, int64(len(pl.allSlots)+1)*msiBytes, func(addr uint64, n int64, data []byte) {
		slot := int((addr - pl.msiBase) / msiBytes)
		if ch, ok := rt.waiters[slot]; ok {
			ch.TryPut(struct{}{})
		}
	})
	return rt
}

// SlotCount reports composed slots for a kernel ID.
func (rt *Runtime) SlotCount(kid uint32) int { return len(rt.pl.slots[kid]) }

// Launch runs one job on a free slot of kernel kid, blocking p until the
// PE signals completion, and returns the PE's return value — the model of
// tapasco::launch.
func (rt *Runtime) Launch(p *sim.Proc, kid uint32, args ...uint64) (uint64, error) {
	if len(args) > peMaxArgs {
		return 0, fmt.Errorf("tapasco: %d arguments exceed the register file", len(args))
	}
	slot := rt.acquireSlot(p, kid)
	if slot == nil {
		return 0, fmt.Errorf("tapasco: no PE composed for kernel %d", kid)
	}
	h := rt.pl.Host.Port
	// Program argument registers, enable the interrupt, start.
	for i, a := range args {
		h.WriteB(p, slot.base+peRegArgs+uint64(i*8), 8, le64b(a))
	}
	ch := sim.NewChan[struct{}](rt.pl.K, 1)
	rt.waiters[slot.id] = ch
	h.WriteB(p, slot.base+peRegIER, 4, le32b(1))
	h.WriteB(p, slot.base+peRegCtrl, 4, le32b(1))
	ch.Get(p)
	delete(rt.waiters, slot.id)
	// Read back the return value.
	lo := make([]byte, 4)
	hi := make([]byte, 4)
	h.ReadB(p, slot.base+peRegRetLo, 4, lo)
	h.ReadB(p, slot.base+peRegRetHi, 4, hi)
	rt.releaseSlot(slot)
	return uint64(le32(lo)) | uint64(le32(hi))<<32, nil
}

// acquireSlot finds a free slot of the kernel, waiting if all are busy.
func (rt *Runtime) acquireSlot(p *sim.Proc, kid uint32) *peSlot {
	slots := rt.pl.slots[kid]
	if len(slots) == 0 {
		return nil
	}
	for {
		for _, s := range slots {
			if !s.launchHeld {
				s.launchHeld = true
				return s
			}
		}
		// All held: re-poll after a scheduler tick.
		p.Sleep(sim.Microsecond)
	}
}

func (rt *Runtime) releaseSlot(s *peSlot) { s.launchHeld = false }
