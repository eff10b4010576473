package bench

import (
	"runtime"
	"strings"
	"testing"

	"snacc/internal/parallel"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// TestParallelDeterminism pins the engine's core guarantee: every table of
// "all" is byte-identical whether the rigs run serially, on four workers,
// or on one worker per CPU. (Also exercised under -race by the Makefile's
// race target.)
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every experiment of all three times")
	}
	defer SetParallelism(1)
	s := goldenScale()
	all, err := Select("all")
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		var b strings.Builder
		for _, e := range all {
			for _, t := range e.Run(s) {
				b.WriteString(t.String())
			}
		}
		// The transfer-size sweep ignores Scale; run it at two small sizes.
		b.WriteString(SweepTransferSize(streamer.URAM, []int64{32 * sim.MiB, 64 * sim.MiB}).String())
		return b.String()
	}

	SetParallelism(1)
	serial := render()

	for _, j := range []int{4, runtime.NumCPU()} {
		SetParallelism(j)
		if got := render(); got != serial {
			t.Fatalf("-j %d output diverged from serial:\n--- serial ---\n%s\n--- j=%d ---\n%s",
				j, serial, j, got)
		}
	}
}

func TestSetParallelism(t *testing.T) {
	defer SetParallelism(1)
	SetParallelism(4)
	if *engine != *parallel.New(4) {
		t.Fatalf("engine = %+v, want 4 workers", *engine)
	}
	SetParallelism(0)
	if *engine != *parallel.New(runtime.GOMAXPROCS(0)) {
		t.Fatalf("engine = %+v, want GOMAXPROCS workers", *engine)
	}
}
