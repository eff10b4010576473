package bench

import (
	"snacc/internal/parallel"
	"snacc/internal/sim"
)

// The experiment runners below are embarrassingly parallel: every row of
// every figure and ablation builds its own simulated system around a private
// sim.Kernel with fixed PRNG seeds, so rows can execute on any worker in any
// real-time order without affecting their simulated-time results. The engine
// collects rows by index, which keeps the emitted tables bit-identical to a
// serial run at every parallelism level (the determinism test pins this).
var engine = parallel.New(1)

// SetParallelism selects how many OS worker goroutines the experiment
// runners shard independent simulation rigs across. n <= 0 selects
// runtime.GOMAXPROCS(0). The default is 1 (serial). Not safe to call
// concurrently with a running experiment; set it once up front.
func SetParallelism(n int) { engine = parallel.New(n) }

// Parallelism reports the configured worker count.
func Parallelism() int { return engine.Workers() }

// mapRows runs job(0..n-1) on the experiment engine and returns the results
// in index order.
func mapRows[T any](n int, job func(i int) T) []T {
	return parallel.Map(engine, n, job)
}

// SuiteConfig scales the full-suite runner.
type SuiteConfig struct {
	// Size is the transfer volume per bandwidth measurement; 0 selects
	// 256 MiB (the CLI default).
	Size int64
	// Images is the case-study stream length; 0 selects 192.
	Images int
	// Samples is the figure-4c latency sample count; 0 selects 200.
	Samples int
}

func (c SuiteConfig) withDefaults() SuiteConfig {
	if c.Size <= 0 {
		c.Size = 256 * sim.MiB
	}
	if c.Images <= 0 {
		c.Images = 192
	}
	if c.Samples <= 0 {
		c.Samples = 200
	}
	return c
}

// RunSuite regenerates every figure, table and ablation at the configured
// scale and returns the rendered tables in the CLI's -all order. Each group
// shards its rigs across the experiment engine; the output is identical at
// any parallelism level.
func RunSuite(cfg SuiteConfig) []Table {
	cfg = cfg.withDefaults()
	size := cfg.Size
	rows := Fig6(cfg.Images)
	return []Table{
		RenderFig4a(Fig4a(size)),
		RenderFig4b(Fig4b(size / 4)),
		RenderFig4c(Fig4c(cfg.Samples)),
		RenderTable1(Table1()),
		RenderFig6(rows),
		RenderFig7(rows),
		RenderAblationQD(AblationQD([]int{4, 16, 64, 256}, size/8)),
		RenderAblationOOO(AblationOOO(size / 8)),
		RenderAblationMultiSSD(AblationMultiSSD([]int{1, 2, 4}, size/2)),
		RenderAblationGen5(AblationGen5(size)),
		RenderAblationHBM(AblationHBM(size)),
		RenderFig6Striped(Fig6Striped([]int{1, 2, 3}, cfg.Images)),
		RenderAblationDRAM(AblationDRAM(size)),
		RenderAblationQP(AblationQP([]int{1, 2, 4}, size/8)),
		RenderAblationMTU(AblationMTU([]int64{1500, 4096, 9000}, cfg.Images)),
	}
}
