package bench

import "snacc/internal/parallel"

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

// mapRows runs job(0..n-1) on the experiment engine and returns the results
// in index order.
func mapRows[T any](n int, job func(i int) T) []T {
	return parallel.Map(engine, n, job)
}
