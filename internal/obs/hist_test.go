package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"snacc/internal/sim"
)

func TestHistBucketBounds(t *testing.T) {
	// Every value must land in a bucket whose upper bound is >= the value
	// and within the bucket's relative-width guarantee.
	vals := []sim.Time{0, 1, 31, 32, 33, 63, 64, 65, 1023, 1024, 4097,
		sim.Microsecond, sim.Millisecond, sim.Second, 1<<62 + 12345}
	for _, v := range vals {
		b := histBucket(v)
		hi := histBucketHigh(b)
		if hi < v {
			t.Errorf("value %d: bucket %d upper bound %d < value", v, b, hi)
		}
		if b > 0 && histBucketHigh(b-1) >= v {
			t.Errorf("value %d: previous bucket %d already covers it", v, b-1)
		}
		// Relative quantization error bounded by one sub-bucket width.
		if v >= histSubCount && float64(hi-v) > float64(v)/float64(histSubCount)+1 {
			t.Errorf("value %d: bucket upper bound %d overshoots by more than 1/%d", v, hi, histSubCount)
		}
	}
}

func TestHistBucketMonotone(t *testing.T) {
	prev := -1
	for v := sim.Time(0); v < 100000; v += 7 {
		b := histBucket(v)
		if b < prev {
			t.Fatalf("bucket index decreased at value %d: %d < %d", v, b, prev)
		}
		prev = b
	}
	if b := histBucket(sim.Time(1<<63 - 1)); b >= histBuckets {
		t.Fatalf("max value bucket %d out of range %d", b, histBuckets)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	rng := rand.New(rand.NewSource(42))
	samples := make([]int64, 10000)
	for i := range samples {
		samples[i] = rng.Int63n(int64(10 * sim.Millisecond))
		h.Record(sim.Time(samples[i]))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	if h.Count() != 10000 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Min() != sim.Time(samples[0]) || h.Max() != sim.Time(samples[len(samples)-1]) {
		t.Fatalf("Min/Max = %v/%v, want %d/%d", h.Min(), h.Max(), samples[0], samples[len(samples)-1])
	}
	for _, p := range []float64{50, 90, 99, 99.9} {
		exact := samples[int(p/100*float64(len(samples)))-1]
		got := int64(h.Percentile(p))
		// Bucket-quantized: within one sub-bucket width above the exact rank.
		if got < exact || float64(got-exact) > float64(exact)/histSubCount+float64(histSubCount) {
			t.Errorf("p%v = %d, exact %d (error too large)", p, got, exact)
		}
	}
}

func TestHistEmptyAndEdge(t *testing.T) {
	var h Hist
	if h.Percentile(99) != 0 || h.Mean() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must read as zero")
	}
	if h.String() != "hist: empty" {
		t.Fatalf("String = %q", h.String())
	}
	h.Record(-5) // clamps to 0
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative clamp: min=%v max=%v n=%d", h.Min(), h.Max(), h.Count())
	}
	h.Record(100)
	if h.Percentile(100) != 100 {
		t.Fatalf("p100 = %v, want 100", h.Percentile(100))
	}
	if h.Percentile(0) != 0 {
		t.Fatalf("p0 = %v, want 0", h.Percentile(0))
	}
}

func TestHistMergeReset(t *testing.T) {
	var a, b Hist
	for i := 0; i < 100; i++ {
		a.Record(sim.Time(i))
		b.Record(sim.Time(1000 + i))
	}
	a.Merge(&b)
	if a.Count() != 200 || a.Min() != 0 || a.Max() != 1099 {
		t.Fatalf("merge: n=%d min=%v max=%v", a.Count(), a.Min(), a.Max())
	}
	a.Merge(nil) // no-op
	if a.Count() != 200 {
		t.Fatal("merge(nil) changed the histogram")
	}
}

func BenchmarkHistRecord(b *testing.B) {
	var h Hist
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(sim.Time(i) * 37)
	}
	if h.Count() != int64(b.N) {
		b.Fatal("miscount")
	}
}

// TestHistPercentileContract pins the out-of-range input contract: p is
// clamped into [0, 100] and NaN returns 0, on empty, single-sample, and
// populated histograms alike.
func TestHistPercentileContract(t *testing.T) {
	var empty Hist

	var single Hist
	single.Record(77)

	var multi Hist
	for v := sim.Time(1); v <= 100; v++ {
		multi.Record(v)
	}

	nan := math.NaN()
	cases := []struct {
		name string
		h    *Hist
		p    float64
		want sim.Time
	}{
		{"empty p50", &empty, 50, 0},
		{"empty NaN", &empty, nan, 0},
		{"empty negative", &empty, -10, 0},
		{"empty over", &empty, 250, 0},
		{"single p0", &single, 0, 77},
		{"single p50", &single, 50, 77},
		{"single p100", &single, 100, 77},
		{"single negative clamps to min", &single, -5, 77},
		{"single over clamps to max", &single, 101, 77},
		{"single NaN", &single, nan, 0},
		{"multi p0 clamps to min", &multi, 0, 1},
		{"multi negative clamps to min", &multi, -273.15, 1},
		{"multi p100 is max", &multi, 100, 100},
		{"multi over clamps to max", &multi, 1e9, 100},
		{"multi +Inf clamps to max", &multi, math.Inf(1), 100},
		{"multi -Inf clamps to min", &multi, math.Inf(-1), 1},
		{"multi NaN", &multi, nan, 0},
	}
	for _, tc := range cases {
		if got := tc.h.Percentile(tc.p); got != tc.want {
			t.Errorf("%s: Percentile(%v) = %v, want %v", tc.name, tc.p, got, tc.want)
		}
	}
	// In-range quantiles keep their ~3% bucket-quantization guarantee.
	if got := multi.Percentile(50); float64(got) < 50 || float64(got) > 52 {
		t.Errorf("p50 = %v, want within [50, 52]", got)
	}
}

// sortedRank is the reference nearest-rank percentile NearestRank must
// match: sort a copy, take the ceil(p/100·n)-th smallest value.
func sortedRank(vals []sim.Time, p float64) sim.Time {
	s := append([]sim.Time(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank]
}

func TestNearestRank(t *testing.T) {
	vals := make([]sim.Time, 0, 100)
	for i := 100; i >= 1; i-- { // descending: NearestRank must sort
		vals = append(vals, sim.Time(i))
	}
	for _, c := range []struct {
		p    float64
		want sim.Time
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0, 1}, {-3, 1}, {250, 100}} {
		if got := NearestRank(vals, c.p); got != c.want {
			t.Errorf("NearestRank(p%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if vals[0] != 100 {
		t.Fatal("NearestRank reordered its input")
	}
	if m := Mean(vals); m != 50 { // 5050/100 truncated
		t.Fatalf("Mean = %v, want 50", m)
	}
	if NearestRank(nil, 99) != 0 || NearestRank(vals, math.NaN()) != 0 || Mean(nil) != 0 {
		t.Fatal("empty input and NaN must read as zero")
	}
}

func TestNearestRankProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]sim.Time, len(raw))
		for i, v := range raw {
			vals[i] = sim.Time(v)
		}
		// Exact against the sorted-slice reference and monotone in p.
		prev := sim.Time(0)
		for _, p := range []float64{1, 25, 50, 75, 90, 99, 99.9, 100} {
			v := NearestRank(vals, p)
			if v != sortedRank(vals, p) || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
