package streamer_test

import (
	"testing"

	"snacc/internal/nvme"
	"snacc/internal/obs"
	"snacc/internal/pcie"
	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
)

// TestILADiagnosisOfP2PWriteLimit reproduces the paper's §5.2 Integrated
// Logic Analyzer analysis of the URAM write ceiling: tracing the Streamer's
// DMA interface shows that "the read accesses employed by the NVMe
// controller to retrieve the data to be written do not occur frequently
// enough to sustain a higher bandwidth, even though our end responds
// immediately".
func TestILADiagnosisOfP2PWriteLimit(t *testing.T) {
	k := sim.NewKernel()
	pl := tapasco.NewPlatform(k, tapasco.DefaultU280())
	dev := nvme.New(k, pl.Fabric, nvme.DefaultConfig("ssd0", ssdBAR))
	st := pl.AddStreamer(streamer.DefaultConfig("snacc0", 0, streamer.URAM))
	drv := tapasco.NewDriver(pl, "ssd0", ssdBAR)

	tr := pcie.NewTracer(k)
	// Capture only the data-buffer window (skip SQ fetches, PRP reads).
	base := st.Config().WindowBase
	tr.Filter = func(addr uint64, n int64) bool {
		return addr >= base && addr < base+uint64(4*sim.MiB) && n >= 4096
	}
	pl.Card.AttachTracer(tr)

	k.Spawn("main", func(p *sim.Proc) {
		if err := drv.InitController(p); err != nil {
			t.Errorf("%v", err)
			return
		}
		if err := drv.AttachStreamer(p, st, 1); err != nil {
			t.Errorf("%v", err)
			return
		}
		streamer.SeqWrite(p, streamer.NewClient(st), 0, 64*sim.MiB)
	})
	k.Run(0)

	reqs := tr.OfKind(pcie.TraceReadReq)
	if len(reqs) < 1000 {
		t.Fatalf("captured only %d data-fetch requests", len(reqs))
	}
	// Observation 1: the controller's request arrival rate caps the
	// bandwidth below the NAND program rate.
	gap := tr.MeanGap(pcie.TraceReadReq)
	impliedBW := 4096.0 / gap.Seconds()
	if impliedBW > 6.0e9 {
		t.Errorf("implied fetch bandwidth %.2f GB/s; the ILA should show the P2P cap (<6)", impliedBW/1e9)
	}
	if impliedBW < 4.8e9 {
		t.Errorf("implied fetch bandwidth %.2f GB/s implausibly low", impliedBW/1e9)
	}
	// Observation 2: "our end responds immediately" — the URAM completer's
	// service latency is a tiny fraction of the request gap.
	svc := obs.Mean(tr.ServiceLatency())
	if svc > gap {
		t.Errorf("streamer-side service latency %v exceeds request gap %v; the limit would be ours, not P2P", svc, gap)
	}
	if svc > 2*sim.Microsecond {
		t.Errorf("URAM service latency %v; should respond in well under 2us", svc)
	}
	_ = dev
}

// TestIOMMUDisabledHasNoEffect reproduces §5.2's control experiment:
// "disabling the IOMMU had no [e]ffect" on the URAM write ceiling.
func TestIOMMUDisabledHasNoEffect(t *testing.T) {
	measure := func(iommu bool) float64 {
		k := sim.NewKernel()
		pl := tapasco.NewPlatform(k, tapasco.DefaultU280())
		pl.Fabric.IOMMU().SetEnabled(iommu)
		nvme.New(k, pl.Fabric, nvme.DefaultConfig("ssd0", ssdBAR))
		st := pl.AddStreamer(streamer.DefaultConfig("snacc0", 0, streamer.URAM))
		drv := tapasco.NewDriver(pl, "ssd0", ssdBAR)
		var bw float64
		k.Spawn("main", func(p *sim.Proc) {
			if err := drv.InitController(p); err != nil {
				t.Errorf("%v", err)
				return
			}
			if err := drv.AttachStreamer(p, st, 1); err != nil {
				t.Errorf("%v", err)
				return
			}
			bw = streamer.SeqWrite(p, streamer.NewClient(st), 0, 128*sim.MiB).GBps()
		})
		k.Run(0)
		return bw
	}
	on, off := measure(true), measure(false)
	rel := (off - on) / on
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.03 {
		t.Errorf("disabling the IOMMU changed write BW by %.1f%% (%.2f vs %.2f); the paper found no effect",
			rel*100, on, off)
	}
}
