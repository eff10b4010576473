package streamer_test

import (
	"encoding/binary"
	"testing"

	"snacc/internal/nvme"
	"snacc/internal/pcie"
	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
)

// prpRig assembles a system and returns handles plus a probe port able to
// read the streamer's PRP window the way the NVMe controller does.
func prpProbe(t *testing.T, v streamer.Variant) (*tapasco.Platform, *streamer.Streamer, func(addr uint64, entries int) []uint64) {
	t.Helper()
	k := sim.NewKernel()
	pl := tapasco.NewPlatform(k, tapasco.DefaultU280())
	nvme.New(k, pl.Fabric, nvme.DefaultConfig("ssd0", ssdBAR))
	stCfg := streamer.DefaultConfig("snacc0", 0, v)
	st := pl.AddStreamer(stCfg)
	drv := tapasco.NewDriver(pl, "ssd0", ssdBAR)
	k.Spawn("init", func(p *sim.Proc) {
		if err := drv.InitController(p); err != nil {
			t.Errorf("%v", err)
			return
		}
		if err := drv.AttachStreamer(p, st, 1); err != nil {
			t.Errorf("%v", err)
		}
	})
	k.Run(0)
	// Probe from the SSD's perspective: a raw read of the PRP region.
	probe := func(addr uint64, entries int) []uint64 {
		buf := make([]byte, entries*8)
		donech := false
		k.Spawn("probe", func(p *sim.Proc) {
			// Use the host port (always granted) to issue the read.
			pl.Host.Port.ReadB(p, addr, int64(len(buf)), buf)
			donech = true
		})
		k.Run(0)
		if !donech {
			t.Fatal("probe read stalled")
		}
		out := make([]uint64, entries)
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(buf[i*8:])
		}
		return out
	}
	return pl, st, probe
}

// TestPRPShadowBitComputation verifies the URAM variant's Figure 2 trick:
// reading the shadow half (bit 22 set) returns entries base+n×4096 computed
// on the fly from the read address, with no stored list anywhere.
func TestPRPShadowBitComputation(t *testing.T) {
	_, st, probe := prpProbe(t, streamer.URAM)
	base := st.Config().WindowBase
	// Simulate the controller reading a PRP list for a command whose first
	// payload page sits at buffer offset 64 KiB: PRP2 = (off+4096) | bit22.
	secondPage := uint64(64*1024 + 4096)
	listAddr := base + (secondPage | streamer.PRPShadowBit)
	entries := probe(listAddr, 8)
	for i, e := range entries {
		want := base + secondPage + uint64(i)*4096
		if e != want {
			t.Fatalf("shadow entry %d = %#x, want %#x", i, e, want)
		}
	}
	// Reads at an offset within the list page must see later entries:
	// entry j of the list read at listAddr+j*8.
	tail := probe(listAddr+5*8, 3)
	for i, e := range tail {
		want := base + secondPage + uint64(5+i)*4096
		if e != want {
			t.Fatalf("offset shadow entry %d = %#x, want %#x", i, e, want)
		}
	}
}

// TestPRPWindowBounds: addresses inside the BAR but outside any configured
// sub-window must fault in the decode rather than silently aliasing.
func TestPRPWindowBounds(t *testing.T) {
	pl, st, _ := prpProbe(t, streamer.URAM)
	defer func() {
		if recover() == nil {
			t.Error("out-of-window access did not panic")
		}
	}()
	addr := st.Config().WindowBase + uint64(st.WindowSize())
	buf := make([]byte, 8)
	// Issue from kernel context so the panic is recoverable here.
	pl.Host.Port.Read(addr, 8, pcie.Bytes(buf), nil)
	pl.K.Run(0)
}

// TestPRPRegfileComputation verifies the DRAM variants' Figure 3 mechanism:
// PRP2 encodes the command slot into a small window; reads there return
// entries computed from the register file. Exercised end to end through a
// functional transfer, then checked by direct window reads against the
// known buffer layout.
func TestPRPRegfileComputation(t *testing.T) {
	pl, st, probe := prpProbe(t, streamer.OnboardDRAM)
	base := st.Config().WindowBase
	// Drive one >8 KiB write so command slot 0 loads the register file;
	// the mapping remains observable afterwards.
	c := streamer.NewClient(st)
	done := false
	pl.K.Spawn("drive", func(p *sim.Proc) {
		c.Write(p, 0, 64*1024, nil)
		done = true
	})
	pl.K.Run(0)
	if !done {
		t.Fatal("priming write stalled")
	}
	// Slot 0 carried the 64 KiB write from buffer offset 0 (write buffer):
	// its second page is offset 4096 of the write region, which lives at
	// windowBase + ReadBufBytes.
	prpWindow := base + uint64(st.Config().ReadBufBytes+st.Config().WriteBufBytes)
	entries := probe(prpWindow, 4)
	wantBase := base + uint64(st.Config().ReadBufBytes) + 4096
	for i, e := range entries {
		want := wantBase + uint64(i)*4096
		if e != want {
			t.Fatalf("regfile entry %d = %#x, want %#x", i, e, want)
		}
	}
}
