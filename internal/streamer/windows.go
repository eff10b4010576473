package streamer

import (
	"fmt"

	"snacc/internal/nvme"
	"snacc/internal/pcie"
	"snacc/internal/sim"
)

// Window layout. Each streamer decodes one aligned window of the FPGA BAR:
//
//	URAM variant (Figure 2):
//	  [0, 4 MiB)        payload buffer (URAM)
//	  [4 MiB, 8 MiB)    PRP shadow — bit 22 selects this half; reads return
//	                    on-the-fly computed PRP entries
//	  [8 MiB, ...)      SQ FIFO window, CQ (reorder buffer) window
//	  window size 16 MiB
//
//	On-board DRAM variant (Figure 3):
//	  [0, 128 MiB)      payload buffers in card DRAM (64 MiB read+write)
//	  [128 MiB, +256 KiB) PRP window — one page per command ID, reads
//	                    return entries computed from the register file
//	  [129 MiB, ...)    SQ window, CQ window; window size 256 MiB
//
//	Host DRAM variant: no data region (payload lives in pinned host
//	memory); PRP window + SQ + CQ only; window size 2 MiB.
const ctrlRegionGap = 64 * sim.KiB

type windowLayout struct {
	dataOff, dataSize int64
	prpOff, prpSize   int64
	sqOff, cqOff      int64
	size              int64
}

// WindowSizeFor computes the BAR window span a configuration will decode,
// so the platform can allocate the window before building the streamer.
func WindowSizeFor(cfg Config) int64 { return layoutFor(cfg).size }

func layoutFor(cfg Config) windowLayout {
	qd := int64(cfg.QueueDepth)
	switch cfg.Variant {
	case URAM:
		if cfg.ReadBufBytes != 4*sim.MiB || cfg.WriteBufBytes != 0 {
			panic("streamer: URAM variant uses one shared 4 MiB buffer")
		}
		return windowLayout{
			dataOff: 0, dataSize: 4 * sim.MiB,
			prpOff: 4 * sim.MiB, prpSize: 4 * sim.MiB,
			sqOff: 8 * sim.MiB, cqOff: 8*sim.MiB + ctrlRegionGap,
			size: 16 * sim.MiB,
		}
	case OnboardDRAM:
		data := cfg.ReadBufBytes + cfg.WriteBufBytes
		return windowLayout{
			dataOff: 0, dataSize: data,
			prpOff: data, prpSize: qd * nvme.PageSize,
			sqOff: data + sim.MiB, cqOff: data + sim.MiB + ctrlRegionGap,
			size: nextPow2(data + 2*sim.MiB),
		}
	case HostDRAM:
		return windowLayout{
			prpOff: 0, prpSize: qd * nvme.PageSize,
			sqOff: sim.MiB, cqOff: sim.MiB + ctrlRegionGap,
			size: 2 * sim.MiB,
		}
	default:
		panic("streamer: unknown variant")
	}
}

func nextPow2(n int64) int64 {
	p := int64(1)
	for p < n {
		p <<= 1
	}
	return p
}

// sqOffFor / cqOffFor place I/O queue pair i's control regions: each pair
// occupies 2*ctrlRegionGap after the layout's base SQ offset. Every variant
// reserves at least MaxIOQueues*2*ctrlRegionGap of control space (the host
// DRAM window has exactly that — the source of the MaxIOQueues bound), and a
// QueueDepth-1024 SQ of 64-byte entries fills one gap exactly.
func (lo windowLayout) sqOffFor(i int) int64 { return lo.sqOff + int64(i)*2*ctrlRegionGap }
func (lo windowLayout) cqOffFor(i int) int64 { return lo.sqOffFor(i) + ctrlRegionGap }

// installWindows wires the streamer's sub-regions into the FPGA BAR router.
func (s *Streamer) installWindows(router *pcie.RangeRouter) {
	lo := s.lo
	if s.cfg.WindowBase%uint64(lo.size) != 0 {
		panic(fmt.Sprintf("streamer: window base %#x not aligned to window size %#x", s.cfg.WindowBase, lo.size))
	}
	if lo.dataSize > 0 {
		if s.res.Local == nil {
			panic("streamer: local-buffer variant needs Resources.Local")
		}
		router.AddRange(s.cfg.WindowBase+uint64(lo.dataOff), lo.dataSize, &dataWindow{s: s})
	} else if s.res.HostRead == nil || s.res.HostWrite == nil {
		panic("streamer: host-DRAM variant needs pinned host chunk buffers")
	}
	router.AddRange(s.cfg.WindowBase+uint64(lo.prpOff), lo.prpSize, &prpWindow{s: s})
	for qi := range s.queues {
		router.AddRange(s.cfg.WindowBase+uint64(lo.sqOffFor(qi)), int64(s.cfg.QueueDepth*nvme.SQESize), &sqWindow{s: s, qi: qi})
		router.AddRange(s.cfg.WindowBase+uint64(lo.cqOffFor(qi)), int64(s.cfg.QueueDepth*nvme.CQESize), &cqWindow{s: s, qi: qi})
	}
}

// SQBusAddr and CQBusAddr are the queue base addresses the host driver
// passes to CreateIOSQ/CreateIOCQ for I/O queue pair i (0-based streamer
// index).
func (s *Streamer) SQBusAddr(i int) uint64 {
	return s.cfg.WindowBase + uint64(s.lo.sqOffFor(i))
}

// CQBusAddr returns queue pair i's completion-queue (reorder buffer window)
// bus address.
func (s *Streamer) CQBusAddr(i int) uint64 {
	return s.cfg.WindowBase + uint64(s.lo.cqOffFor(i))
}

// ---- payload buffer plumbing ----

// bufPhys returns the bus address of a payload-buffer page.
func (s *Streamer) bufPhys(isWrite bool, off int64) uint64 {
	switch s.cfg.Variant {
	case URAM:
		return s.cfg.WindowBase + uint64(off)
	case OnboardDRAM:
		base := int64(0)
		if isWrite {
			base = s.cfg.ReadBufBytes
		}
		return s.cfg.WindowBase + uint64(base+off)
	case HostDRAM:
		buf := s.res.HostRead
		if isWrite {
			buf = s.res.HostWrite
		}
		phys, _ := buf.Translate(off)
		return phys
	default:
		panic("streamer: unknown variant")
	}
}

// bufWrite stores n bytes of PE data into the write buffer at off. The
// write is posted — the FSM moves on once the data has left its pipeline;
// PCIe posted-write ordering guarantees the payload lands in host memory
// before the doorbell (also a posted write on the same path) triggers the
// controller's fetch. consumed (optional) fires once the staging memory
// holds data and the caller may release it: immediately for the local
// variants (WriteAccess installs at call time), and after the last PCIe
// delivery for the host-DRAM variant (the port carries the payload until
// its completer has installed it).
func (s *Streamer) bufWrite(off, n int64, data pcie.Payload, consumed func()) {
	if s.cfg.Variant == HostDRAM {
		runs := s.res.HostWrite.Runs(off, n)
		pending := len(runs)
		var pos int64
		for _, run := range runs {
			d := data.Slice(int(pos), int(run.Len))
			pos += run.Len
			s.port.Write(run.Phys, run.Len, d, func() {
				pending--
				if pending == 0 && consumed != nil {
					consumed()
				}
			})
		}
		return
	}
	s.res.Local.WriteAccess(s.localOff(true, off), n, data, func() {})
	if consumed != nil {
		consumed()
	}
}

// bufReadAsync drains n bytes from the read buffer at off into buf,
// invoking done when the data is available.
func (s *Streamer) bufReadAsync(off, n int64, buf pcie.Payload, done func()) {
	if s.cfg.Variant == HostDRAM {
		runs := s.res.HostRead.Runs(off, n)
		remaining := len(runs)
		var pos int64
		for _, run := range runs {
			d := buf.Slice(int(pos), int(run.Len))
			pos += run.Len
			s.port.Read(run.Phys, run.Len, d, func() {
				remaining--
				if remaining == 0 {
					done()
				}
			})
		}
		return
	}
	s.res.Local.ReadAccess(s.localOff(false, off), n, buf, done)
}

// localOff maps a buffer offset to the local memory address space.
func (s *Streamer) localOff(isWrite bool, off int64) uint64 {
	base := int64(0)
	if isWrite && s.cfg.Variant == OnboardDRAM {
		base = s.cfg.ReadBufBytes
	}
	return s.res.LocalBase + uint64(base+off)
}

// ---- BAR window completers ----

// dataWindow exposes the local payload buffer to the NVMe controller's DMA
// (arrows ③/④ in Figure 1).
type dataWindow struct{ s *Streamer }

func (w *dataWindow) CompleteRead(addr uint64, n int64, dst pcie.Payload, done func()) {
	rel := addr - w.s.cfg.WindowBase
	w.s.res.Local.ReadAccess(w.s.res.LocalBase+rel, n, dst, done)
}

func (w *dataWindow) CompleteWrite(addr uint64, n int64, data pcie.Payload) {
	rel := addr - w.s.cfg.WindowBase
	w.s.res.Local.WriteAccess(w.s.res.LocalBase+rel, n, data, func() {})
}

// sqWindow serves the controller's SQE fetches from queue pair qi's in-IP
// FIFO (arrow ②).
type sqWindow struct {
	s  *Streamer
	qi int
}

const fifoReadLatency = 50 * sim.Nanosecond

func (w *sqWindow) CompleteRead(addr uint64, n int64, dst pcie.Payload, done func()) {
	s := w.s
	q := s.queues[w.qi]
	rel := int64(addr - s.cfg.WindowBase - uint64(s.lo.sqOffFor(w.qi)))
	if rel%nvme.SQESize != 0 || n%nvme.SQESize != 0 {
		panic("streamer: partial SQE fetch")
	}
	if !dst.IsNil() {
		for off := int64(0); off < n; off += nvme.SQESize {
			idx := int((rel + off) / nvme.SQESize)
			if !q.sqFilled[idx] {
				panic(fmt.Sprintf("streamer: controller fetched empty SQ slot %d", idx))
			}
			dst.WriteAt(q.sqRing[idx], int(off))
		}
	}
	s.k.After(fifoReadLatency, done)
}

func (w *sqWindow) CompleteWrite(addr uint64, n int64, data pcie.Payload) {
	panic("streamer: SQ window is read-only for the device")
}

// cqWindow receives the controller's completion writes for queue pair qi
// into the shared reorder buffer (arrow ⑤).
type cqWindow struct {
	s  *Streamer
	qi int
}

func (w *cqWindow) CompleteRead(addr uint64, n int64, dst pcie.Payload, done func()) {
	panic("streamer: CQ window is write-only for the device")
}

func (w *cqWindow) CompleteWrite(addr uint64, n int64, data pcie.Payload) {
	if data.IsNil() || n != nvme.CQESize {
		panic("streamer: CQ write must carry one CQE")
	}
	cqe, err := nvme.UnmarshalCompletion(data.Bytes())
	if err != nil {
		panic(err)
	}
	w.s.onCQE(w.qi, cqe)
}
