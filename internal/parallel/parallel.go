// Package parallel is the deterministic experiment engine behind the
// repository's sweep grids: a fork-join worker pool that shards independent
// jobs across GOMAXPROCS goroutines while guaranteeing bit-identical output
// ordering versus a serial run.
//
// Every figure, ablation and case-study runner in internal/bench builds a
// private *sim.Kernel per measurement, so the rigs of one sweep share no
// mutable state and are safe to run concurrently. The engine exploits that:
// jobs are indexed, results are collected by index, and all per-rig
// randomness flows through explicitly seeded PRNGs inside the rig itself —
// so the assembled result slice is byte-identical whether the grid ran on
// one worker or sixteen. The determinism tests in internal/bench assert
// exactly that.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Engine is a fork-join scheduler with a fixed worker budget. The zero
// value is not usable; create one with New. Engines are stateless between
// calls and safe for concurrent use.
type Engine struct {
	workers int
}

// New returns an engine running at most workers jobs concurrently.
// workers <= 0 selects runtime.GOMAXPROCS(0) — "as many as the hardware
// allows".
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers}
}

// Run executes job(0) … job(n-1), returning when all have completed. With
// one worker (or one job) it runs inline on the caller's goroutine — the
// exact serial code path, with no goroutines involved — so `-j 1` is a true
// serial baseline. Otherwise min(workers, n) goroutines pull indices from a
// shared counter. If any job panics, Run re-panics the first panic value on
// the calling goroutine after the remaining workers drain, mirroring the
// serial failure mode.
func (e *Engine) Run(n int, job func(i int)) {
	if n <= 0 {
		return
	}
	if e.workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	w := e.workers
	if w > n {
		w = n
	}
	var (
		next     int64
		wg       sync.WaitGroup
		panicked atomic.Value
	)
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					// Keep the first panic; later ones lose the race.
					panicked.CompareAndSwap(nil, fmt.Sprintf("parallel: job panicked: %v", r))
				}
			}()
			for {
				i := atomic.AddInt64(&next, 1) - 1
				if i >= int64(n) {
					return
				}
				job(int(i))
			}
		}()
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(r)
	}
}

// Map runs job for every index and returns the results in index order —
// the parallel equivalent of an append loop, with identical ordering.
func Map[T any](e *Engine, n int, job func(i int) T) []T {
	out := make([]T, n)
	e.Run(n, func(i int) { out[i] = job(i) })
	return out
}
