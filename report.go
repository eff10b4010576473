package snacc

import (
	"fmt"
	"strings"

	"snacc/internal/bench"
	"snacc/internal/sim"
)

// ReportOptions scales the full-evaluation report.
type ReportOptions struct {
	// TransferMiB is the volume per bandwidth measurement (default 256;
	// the paper uses 1024).
	TransferMiB int64
	// Images is the case-study stream length (default 128; paper 16384).
	Images int
	// LatencySamples for Figure 4c (default 150).
	LatencySamples int
	// Ablations includes the §7 extension experiments.
	Ablations bool
}

// Report regenerates the paper's evaluation (§5, §6, and the §7 ablations
// when opts.Ablations is set) and returns it as one formatted text
// document: the tables `snaccbench -run all` prints for those sections, in
// the same order.
func Report(opts ReportOptions) string {
	if opts.TransferMiB <= 0 {
		opts.TransferMiB = 256
	}
	if opts.Images <= 0 {
		opts.Images = 128
	}
	if opts.LatencySamples <= 0 {
		opts.LatencySamples = 150
	}
	s := bench.DefaultScale()
	s.Size, s.Images, s.Samples = opts.TransferMiB*sim.MiB, opts.Images, opts.LatencySamples

	var b strings.Builder
	b.WriteString("SNAcc evaluation report (simulated; see EXPERIMENTS.md for calibration)\n\n")
	for _, e := range bench.Experiments {
		if e.Group == bench.Paper || opts.Ablations && e.Group == bench.Ablation {
			for _, t := range e.Run(s) {
				fmt.Fprintln(&b, t)
			}
		}
	}
	return b.String()
}
