// Package obs is the per-command observability layer: span tracing across
// the NVMe command pipeline (PE acceptance → staging buffer → SQE → doorbell
// → controller fetch → data transfer → CQE → in-order retirement) and
// fixed-bucket latency histograms for the stage-to-stage transitions. It is
// the simulation counterpart of the ILA captures the paper's §5.2 uses to
// attribute the URAM write ceiling — but per command and always on, so tail
// latency can be attributed to a pipeline stage instead of inferred from
// aggregate means.
//
// Everything here is nil-safe and zero-value-ready: a Streamer without a
// Tracer pays one pointer compare per instrumentation site, and the
// histogram record path performs no allocations, preserving the hot-path
// guarantees of the benchmark suite.
package obs

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"snacc/internal/sim"
)

// Bucketing: histSubCount linear sub-buckets per power-of-two octave
// (HDR-histogram style). With 32 sub-buckets the relative bucket width is
// ≤ 1/32 ≈ 3.1%, which is far below the run-to-run variation of any latency
// this simulator models, while the whole table for 63 octaves of sim.Time
// stays a fixed 15 KiB array — no allocation, ever.
const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits
	histSubMask  = histSubCount - 1
	histBuckets  = histSubCount * (64 - histSubBits + 1)
)

// Hist is the repository's one latency histogram: fixed-bucket, log-spaced,
// over non-negative sim.Time values. The zero value is ready to use; Record
// never allocates. It does not retain samples, so its percentiles are
// bucket-quantized (≈3% relative error) but its memory is constant. Reports
// that print exact order statistics over a bounded sample set keep the
// samples themselves and ask NearestRank.
type Hist struct {
	counts [histBuckets]int64
	n      int64
	sum    sim.Time
	min    sim.Time
	max    sim.Time
}

// histBucket maps a value to its bucket index: identity below histSubCount,
// then histSubCount linear sub-buckets per octave.
func histBucket(v sim.Time) int {
	u := uint64(v)
	if u < histSubCount {
		return int(u)
	}
	exp := bits.Len64(u) - 1
	return ((exp - histSubBits + 1) << histSubBits) + int((u>>uint(exp-histSubBits))&histSubMask)
}

// histBucketHigh returns the largest value mapping to bucket i — the value
// reported for percentiles falling in that bucket (so quantiles are always
// conservative, never under-reported).
func histBucketHigh(i int) sim.Time {
	if i < histSubCount {
		return sim.Time(i)
	}
	exp := uint(i>>histSubBits) + histSubBits - 1
	width := int64(1) << (exp - histSubBits)
	lo := int64(1)<<exp + int64(i&histSubMask)*width
	return sim.Time(lo + width - 1)
}

// Record adds one sample. Negative values clamp to zero (stage deltas are
// non-negative by construction; the clamp keeps a corrupted input visible at
// bucket 0 instead of panicking).
func (h *Hist) Record(v sim.Time) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.counts[histBucket(v)]++
}

// Count returns the number of recorded samples.
func (h *Hist) Count() int64 { return h.n }

// Sum returns the sum of all recorded samples.
func (h *Hist) Sum() sim.Time { return h.sum }

// Mean returns the arithmetic mean (exact, from the running sum).
func (h *Hist) Mean() sim.Time {
	if h.n == 0 {
		return 0
	}
	return h.sum / sim.Time(h.n)
}

// Min returns the smallest recorded sample (exact).
func (h *Hist) Min() sim.Time { return h.min }

// Max returns the largest recorded sample (exact).
func (h *Hist) Max() sim.Time { return h.max }

// Percentile returns the value at or below which p percent of samples fall,
// quantized to the containing bucket's upper bound and clamped into
// [Min, Max] so the extremes stay exact.
//
// Contract for out-of-range input: p is clamped into [0, 100] (p <= 0 yields
// Min, p >= 100 yields Max) and NaN yields 0 — a poisoned quantile must not
// masquerade as a real latency. int64(NaN) is platform-dependent in Go, so
// without the explicit check the result would differ across architectures.
func (h *Hist) Percentile(p float64) sim.Time {
	if h.n == 0 || math.IsNaN(p) {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := int64(math.Ceil(p / 100 * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.counts {
		seen += h.counts[i]
		if seen >= rank {
			v := histBucketHigh(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// P50, P90, P99 and P999 are the quantiles the latency-breakdown reports use.
func (h *Hist) P50() sim.Time  { return h.Percentile(50) }
func (h *Hist) P90() sim.Time  { return h.Percentile(90) }
func (h *Hist) P99() sim.Time  { return h.Percentile(99) }
func (h *Hist) P999() sim.Time { return h.Percentile(99.9) }

// Merge folds other into h.
func (h *Hist) Merge(other *Hist) {
	if other == nil || other.n == 0 {
		return
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
	h.sum += other.sum
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
}

// String summarizes the distribution.
func (h *Hist) String() string {
	if h.n == 0 {
		return "hist: empty"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p90=%v p99=%v p999=%v max=%v",
		h.n, h.Mean(), h.P50(), h.P90(), h.P99(), h.P999(), h.max)
}

// NearestRank returns the exact nearest-rank p-th percentile of samples, for
// the reports that print exact order statistics over a bounded sample set
// (Figure 4c, the queue sweep, snacctrace's service latency) instead of a
// Hist's bucket-quantized ones. samples is not modified. p follows
// Hist.Percentile's contract: clamped into [0, 100], NaN yields 0, and so
// does an empty sample set.
func NearestRank(samples []sim.Time, p float64) sim.Time {
	if len(samples) == 0 || math.IsNaN(p) {
		return 0
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	rank := int(math.Ceil(min(max(p, 0), 100)/100*float64(len(sorted)))) - 1
	return sorted[max(rank, 0)]
}

// Mean returns the arithmetic mean of samples, truncated to whole
// nanoseconds as Hist.Mean is (0 for no samples).
func Mean(samples []sim.Time) sim.Time {
	if len(samples) == 0 {
		return 0
	}
	var sum sim.Time
	for _, s := range samples {
		sum += s
	}
	return sum / sim.Time(len(samples))
}
