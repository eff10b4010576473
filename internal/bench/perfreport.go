package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"snacc/internal/sim"
)

// PerfReport summarizes the experiment engine's serial-vs-parallel wall time
// on a sample of the suite plus the simulation kernel's scheduling rate.
// The snaccbench CLI emits it as BENCH_parallel.json.
type PerfReport struct {
	// CPUs is runtime.NumCPU() on the measuring machine — the hard ceiling
	// on any parallel speedup. GOMAXPROCS is the Go scheduler's limit at
	// measurement time, which can be lower (CI containers routinely pin it
	// to 1); that is the number that actually bounds wall-clock speedup.
	CPUs       int `json:"cpus"`
	GOMAXPROCS int `json:"gomaxprocs"`
	// Workers is the requested worker count; EffectiveWorkers is how many
	// can truly run at once, min(Workers, GOMAXPROCS).
	Workers          int `json:"workers"`
	EffectiveWorkers int `json:"effective_workers"`
	// CoreBound flags a measurement whose wall-clock speedup is limited by
	// the machine rather than the scheduler: fewer schedulable cores than
	// requested workers. A speedup near 1x with CoreBound set is the
	// machine's fault, NOT a parallelism regression — single-CPU CI must
	// check this flag before judging the Speedup number.
	CoreBound bool `json:"core_bound"`
	// SerialSeconds and ParallelSeconds are wall times for the same sample
	// suite at -j 1 and -j Workers.
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	Speedup         float64 `json:"speedup"`
	// KernelEventsPerSec is the discrete-event scheduler's throughput
	// (schedule + dispatch) on one core; KernelAllocsPerEvent is the
	// steady-state heap allocations per event (0 for the inlined 4-ary
	// heap).
	KernelEventsPerSec   float64 `json:"kernel_events_per_sec"`
	KernelAllocsPerEvent float64 `json:"kernel_allocs_per_event"`
	Note                 string  `json:"note,omitempty"`
}

// JSON renders the report.
func (r PerfReport) JSON() string {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(out)
}

// perfSample runs a representative slice of the suite: two bandwidth
// figures, a latency figure, an ablation with two sub-rigs per row, and a
// case-study pass — ten-plus independent rigs with uneven run times, the
// load shape the worker pool has to schedule well.
func perfSample() {
	Fig4a(48 * sim.MiB)
	Fig4b(12 * sim.MiB)
	Fig4c(60)
	AblationGen5(32 * sim.MiB)
	Fig6(48)
}

// MeasurePerf times perfSample at -j 1 and -j workers and benchmarks the
// kernel's event throughput. The engine parallelism is restored afterwards.
func MeasurePerf(workers int) PerfReport {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	prev := Parallelism()
	defer SetParallelism(prev)

	SetParallelism(1)
	perfSample() // warm-up: page in code paths and prime the buffer pools
	start := time.Now()
	perfSample()
	serial := time.Since(start)

	SetParallelism(workers)
	start = time.Now()
	perfSample()
	par := time.Since(start)

	eps, allocs := kernelRate()
	r := PerfReport{
		CPUs:                 runtime.NumCPU(),
		GOMAXPROCS:           runtime.GOMAXPROCS(0),
		Workers:              workers,
		SerialSeconds:        serial.Seconds(),
		ParallelSeconds:      par.Seconds(),
		Speedup:              serial.Seconds() / par.Seconds(),
		KernelEventsPerSec:   eps,
		KernelAllocsPerEvent: allocs,
	}
	r.EffectiveWorkers = r.Workers
	if r.GOMAXPROCS < r.EffectiveWorkers {
		r.EffectiveWorkers = r.GOMAXPROCS
	}
	r.CoreBound = r.EffectiveWorkers < r.Workers
	if r.CoreBound {
		r.Note = fmt.Sprintf("core-bound: only %d of %d workers can run concurrently; the speedup figure reflects the machine, not the scheduler",
			r.EffectiveWorkers, r.Workers)
	}
	return r
}

// kernelRate measures scheduler throughput and allocations per event: batches
// of 4096 timestamp-shuffled events scheduled and dispatched to completion,
// the access pattern the figure rigs generate.
func kernelRate() (eventsPerSec, allocsPerEvent float64) {
	const (
		batch  = 4096
		rounds = 256
	)
	k := sim.NewKernel()
	fn := func() {}
	rng := sim.NewRand(7)
	run := func() {
		base := k.Now()
		for i := 0; i < batch; i++ {
			k.At(base+sim.Time(rng.Int63n(1000)), fn)
		}
		k.Run(0)
	}
	run() // warm-up grows the heap's backing array
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		run()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	events := float64(batch * rounds)
	return events / elapsed.Seconds(), float64(after.Mallocs-before.Mallocs) / events
}
