package bench

import (
	"runtime"
	"testing"
	"time"

	"snacc/internal/sim"
)

// settle collects garbage until finished goroutines are gone and returns
// the goroutine count. want is the count to wait for; the wait is bounded.
func settle(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestRunnersCloseTheirRigs pins that the experiment runners free every
// rig they build: repeated runs keep the goroutine count at its baseline.
// A rig whose kernel is never closed keeps its suspended model processes,
// and the coroutines behind them, for the life of the program. The
// runners cover every way the experiments build a rig: buildSNAcc and
// buildSPDK (Fig4c), runInMain (AblationDRAM) and the cluster
// (ClusterSweep).
func TestRunnersCloseTheirRigs(t *testing.T) {
	runners := []struct {
		name string
		run  func()
	}{
		{"fig4c", func() { Fig4c(20) }},
		{"dram", func() { AblationDRAM(4 * sim.MiB) }},
		{"cluster", func() { ClusterSweep([][3]int{{3, 2, 1}}, 2*sim.MiB) }},
	}
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			r.run() // warm the process-wide pools and caches
			base := settle(runtime.NumGoroutine())
			for i := 0; i < 3; i++ {
				r.run()
			}
			if n := settle(base); n > base {
				t.Errorf("goroutines grew from %d to %d over 3 runs", base, n)
			}
		})
	}
}
