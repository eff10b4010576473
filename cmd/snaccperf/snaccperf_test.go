package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"snacc"
	"snacc/internal/sim"
)

// smoke is the configuration every test runs the workloads at.
var smoke = options{seed: 1, scale: 0.005, runs: 1}

// benchmarkMetrics returns the metric names BENCHMARK.json lists.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// checkMetrics fails unless out reports exactly the named metrics, each
// with a unit and a finite value, and nothing failed.
func checkMetrics(t *testing.T, out outcome, names []string) {
	t.Helper()
	if out.attempted < 1 || out.failed != 0 {
		t.Errorf("attempted %d, failed %d", out.attempted, out.failed)
	}
	got := map[string]metric{}
	for _, m := range out.metrics {
		got[m.name] = m
	}
	if len(got) != len(names) {
		t.Errorf("reported %d metrics, BENCHMARK.json lists %d", len(got), len(names))
	}
	for _, name := range names {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("metric %s not reported", name)
		case m.unit == "":
			t.Errorf("metric %s has no unit", name)
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			t.Errorf("metric %s = %v", name, m.value)
		}
	}
}

func TestEveryMetricReported(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, err := e2eRun(w, smoke)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, out, endToEnd)
			traced := smoke
			traced.trace = true
			out, err = traceRun(w, traced)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, out, perLayer)
		})
	}
}

// simulatedValues returns every metric without host samples.
func simulatedValues(out outcome) map[string]float64 {
	vals := map[string]float64{}
	for _, m := range append(out.metrics, out.extra...) {
		if m.samples == nil {
			vals[m.name] = m.value
		}
	}
	return vals
}

func TestSimulatedMetricsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := e2eRun(w, smoke)
			if err != nil {
				t.Fatal(err)
			}
			b, err := e2eRun(w, smoke)
			if err != nil {
				t.Fatal(err)
			}
			va, vb := simulatedValues(a), simulatedValues(b)
			if len(va) == 0 {
				t.Fatal("no simulated metric")
			}
			for name, v := range va {
				if vb[name] != v {
					t.Errorf("%s: %v, then %v", name, v, vb[name])
				}
			}
		})
	}
}

func TestSeedChangesRandomWorkload(t *testing.T) {
	other := smoke
	other.seed = 2
	a, err := e2eRun(findWorkload("rand-4k"), smoke)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e2eRun(findWorkload("rand-4k"), other)
	if err != nil {
		t.Fatal(err)
	}
	va, vb := simulatedValues(a), simulatedValues(b)
	for _, name := range []string{"sim_goodput_gbps", "sim_p50_us", "sim_p99_us"} {
		if va[name] == vb[name] {
			t.Errorf("%s is %v under both seeds", name, va[name])
		}
	}
}

func TestFlippedByteCountsAsFailed(t *testing.T) {
	c := config{seed: 1, scale: smoke.scale}
	r, err := newSlotRig(c, seqOptions(c), seqOpBytes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res := r.pass(1, true, false); res.failed != 0 {
		t.Fatalf("%d writes failed", res.failed)
	}
	bad := append([]byte(nil), r.payload(1, 1)...)
	bad[len(bad)/2] ^= 0x10
	var werr error
	r.sys.Execute(func(h *snacc.Handle) { werr = h.WriteErr(r.addr(1), bad) })
	if werr != nil {
		t.Fatal(werr)
	}
	res := r.pass(1, false, true)
	if res.ops != 2 || res.failed != 1 {
		t.Errorf("read-back of 2 slots, one corrupted: %d ops, %d failed; want 2, 1", res.ops, res.failed)
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.q1 != 2.75 || s.med != 5.5 || s.q3 != 8.25 {
		t.Errorf("summarize(1..10) = %+v, want q1 2.75, median 5.5, q3 8.25", s)
	}
}

func TestHistQuantileFollowsSamples(t *testing.T) {
	// 10 000 samples spread evenly over 100–200 µs, where the histogram's
	// buckets are 4.096 µs wide.
	var h snacc.LatencyHist
	for v := 100_000; v < 200_000; v += 10 {
		h.Record(sim.Time(v))
	}
	for _, c := range []struct{ p, want float64 }{{50, 149.99}, {99, 198.99}} {
		if got := histQuantile(&h, c.p); math.Abs(got-c.want) > 0.1 {
			t.Errorf("p%v = %v µs, want %v ± 0.1", c.p, got, c.want)
		}
	}
}
