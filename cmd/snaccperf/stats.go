package main

import (
	"math"
	"math/bits"
	"sort"

	"snacc"
	"snacc/internal/sim"
)

// metric is one reported number. Host metrics keep the raw samples behind
// their summary so that -runs can pool them; simulated metrics are exact
// and carry none, and must repeat bit for bit between runs.
type metric struct {
	name, unit    string
	value, q1, q3 float64
	n             int64
	samples       []float64
}

// hostMetric summarizes host-time samples by their median and quartiles.
func hostMetric(name, unit string, samples []float64) metric {
	s := summarize(samples)
	return metric{name: name, unit: unit, value: s.med, q1: s.q1, q3: s.q3,
		n: int64(len(samples)), samples: samples}
}

// simMetric is a single deterministic value.
func simMetric(name, unit string, v float64) metric {
	return metric{name: name, unit: unit, value: v, q1: v, q3: v, n: 1}
}

// latencyMetric reports percentile p of a simulated latency histogram in
// µs, with the distribution's quartiles and its sample count.
func latencyMetric(name string, h *snacc.LatencyHist, p float64) metric {
	return metric{name: name, unit: "us", value: histQuantile(h, p),
		q1: histQuantile(h, 25), q3: histQuantile(h, 75), n: h.Count()}
}

type summary struct{ med, q1, q3 float64 }

// summarize returns the median and the quartiles as Python's
// statistics.quantiles(data, n=4) computes them (the exclusive method), so
// that numbers printed here and numbers computed over runs agree.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{s[0], s[0], s[0]}
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return summary{med, q(1), q(3)}
}

// histQuantile returns percentile p of h in µs. The histogram reports the
// upper edge of the bucket holding the wanted rank; this spreads the
// samples of that bucket evenly across its width instead, so the value
// moves with the samples rather than snapping between bucket edges (the
// buckets are 32 linear steps per power of two, about 3% wide).
func histQuantile(h *snacc.LatencyHist, p float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := min(max(int64(math.Ceil(p/100*float64(n))), 1), n)
	at := func(r int64) sim.Time { return h.Percentile(100 * (float64(r) - 0.5) / float64(n)) }
	v := at(rank)
	first := int64(sort.Search(int(rank), func(i int) bool { return at(int64(i)+1) >= v })) + 1
	last := rank + int64(sort.Search(int(n-rank), func(i int) bool { return at(rank+1+int64(i)) > v }))
	lo := v
	if v >= 32 {
		lo = v &^ (sim.Time(1)<<(bits.Len64(uint64(v))-6) - 1)
	}
	lo = max(lo, h.Min())
	frac := (float64(rank-first) + 0.5) / float64(last-first+1)
	return (float64(lo) + frac*float64(v-lo)) / 1e3
}
