package snacc

import (
	"testing"

	"snacc/internal/bench"
	"snacc/internal/sim"
)

// BenchmarkExperiments regenerates every registry entry — each paper
// figure and table, the §7 ablations, the extension sweeps and the tools —
// at one small scale, as `snaccbench -run <name>` does: its tables, then
// its detail output. ns/op measures the simulator, not the hardware; the
// reproduced numbers are in the tables (see EXPERIMENTS.md).
func BenchmarkExperiments(b *testing.B) {
	s := DefaultScale()
	s.Size, s.Images, s.Samples = 16*sim.MiB, 16, 20
	for _, e := range bench.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if e.Run != nil {
					e.Run(s)
				}
				if e.Detail != nil {
					e.Detail(s)
				}
			}
		})
	}
}

// BenchmarkStreamerSeqWrite micro-benchmarks the core write path per
// variant (simulator throughput, plus the reproduced GB/s metric).
func BenchmarkStreamerSeqWrite(b *testing.B) {
	for _, v := range []Variant{URAM, OnboardDRAM, HostDRAM} {
		b.Run(v.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f := false
				sys := MustNewSystem(Options{Variant: v, Functional: &f})
				var gbps float64
				sys.Execute(func(h *Handle) {
					start := h.Now()
					check(b, h.WriteTimed(0, 128*sim.MiB))
					gbps = float64(128*sim.MiB) / float64(h.Now()-start)
				})
				b.ReportMetric(gbps, "GBps")
			}
		})
	}
}

// BenchmarkSimulatorEventRate measures raw simulator speed: simulated
// bytes moved per wall second on the heaviest path (SSD write fetches).
func BenchmarkSimulatorEventRate(b *testing.B) {
	f := false
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sys := MustNewSystem(Options{Variant: HostDRAM, Functional: &f})
		sys.Execute(func(h *Handle) { check(b, h.WriteTimed(0, 64*sim.MiB)) })
	}
	b.SetBytes(64 * sim.MiB)
}
