package snacc

import (
	"io"

	"snacc/internal/sim"
	"snacc/internal/workload"
)

// Workload generator re-exports: deterministic sequential / random /
// Zipfian / mixed access patterns driven through the Streamer.
type (
	// WorkloadSpec describes a generated workload.
	WorkloadSpec = workload.Spec
	// WorkloadResult summarizes a workload run.
	WorkloadResult = workload.Result
	// WorkloadPattern selects the address sequence.
	WorkloadPattern = workload.Pattern
)

// Workload patterns.
const (
	SequentialPattern = workload.Sequential
	RandomPattern     = workload.Random
	ZipfianPattern    = workload.Zipfian
)

// RunWorkload executes the workload on this system — through the
// Streamer, or across the cluster's logical space — and returns its
// throughput summary. A virtualized system reports an error.
func (s *System) RunWorkload(spec WorkloadSpec) (WorkloadResult, error) {
	c, err := s.rawLane()
	if err != nil {
		return WorkloadResult{}, err
	}
	var res WorkloadResult
	s.Execute(func(h *Handle) {
		res, err = workload.Run(h.p, c, spec)
	})
	return res, err
}

// TraceOp is one operation of a recorded I/O trace; see ParseTrace for the
// file format.
type TraceOp = workload.TraceOp

// ParseTrace reads an I/O trace: one `R|W <offset> <length> [gap-µs]` line
// per operation, '#' comments, K/M/G binary suffixes.
func ParseTrace(r io.Reader) ([]TraceOp, error) { return workload.ParseTrace(r) }

// FormatTrace writes ops in the trace file format ParseTrace reads.
func FormatTrace(w io.Writer, ops []TraceOp) error { return workload.FormatTrace(w, ops) }

// RecordTrace materializes a generated workload as a replayable trace.
func RecordTrace(spec WorkloadSpec) ([]TraceOp, error) { return workload.RecordTrace(spec) }

// ReplayTrace replays a recorded I/O trace through this system's Streamer
// or cluster, honoring per-operation arrival gaps (open loop) or running
// closed-loop when gaps are zero.
func (s *System) ReplayTrace(name string, ops []TraceOp) (WorkloadResult, error) {
	c, err := s.rawLane()
	if err != nil {
		return WorkloadResult{}, err
	}
	var res WorkloadResult
	s.Execute(func(h *Handle) {
		res, err = workload.Replay(h.p, c, name, ops)
	})
	return res, err
}

// DefaultWorkload returns a ready-to-run spec: 70/30 random read/write of
// 4 KiB operations over 1 GiB of address space.
func DefaultWorkload() WorkloadSpec {
	return WorkloadSpec{
		Name:         "mixed-70-30",
		Pattern:      workload.Random,
		ReadFraction: 0.7,
		IOBytes:      4096,
		SpanBytes:    sim.GiB,
		TotalBytes:   32 * sim.MiB,
		Seed:         1,
	}
}
