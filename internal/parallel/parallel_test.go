package parallel

import (
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"snacc/internal/sim"
)

func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		e := New(workers)
		got := Map(e, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: index %d holds %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapMatchesSerial(t *testing.T) {
	// A Map over simulation rigs must produce byte-identical results at any
	// worker count: each job owns a private kernel and a private PRNG.
	run := func(workers int) []sim.Time {
		e := New(workers)
		return Map(e, 16, func(i int) sim.Time {
			k := sim.NewKernel()
			rng := sim.NewRand(uint64(i + 1))
			var last sim.Time
			for j := 0; j < 100; j++ {
				k.After(sim.Time(rng.Int63n(1000)+1), func() { last = k.Now() })
			}
			k.Run(0)
			return last
		})
	}
	serial := run(1)
	for _, w := range []int{2, 4, 8} {
		if got := run(w); !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d diverged from serial: %v vs %v", w, got, serial)
		}
	}
}

func TestRunCountsEveryJobOnce(t *testing.T) {
	e := New(8)
	var hits [1000]int32
	e.Run(len(hits), func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("job %d ran %d times", i, h)
		}
	}
}

func TestWorkerBudget(t *testing.T) {
	e := New(3)
	var live, peak int32
	e.Run(64, func(i int) {
		n := atomic.AddInt32(&live, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
				break
			}
		}
		atomic.AddInt32(&live, -1)
	})
	if peak > 3 {
		t.Fatalf("observed %d concurrent jobs, budget is 3", peak)
	}
}

func TestPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		e := New(workers)
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				if workers > 1 && !strings.Contains(r.(string), "boom") {
					t.Fatalf("workers=%d: panic lost its message: %v", workers, r)
				}
			}()
			e.Run(8, func(i int) {
				if i == 5 {
					panic("boom")
				}
			})
		}()
	}
}

func TestDefaults(t *testing.T) {
	if got := New(0).workers; got != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(0).workers = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := New(-3).workers; got != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(-3).workers = %d", got)
	}
	New(2).Run(0, func(int) { t.Fatal("job ran for n=0") })
}
