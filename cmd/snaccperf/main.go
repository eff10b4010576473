// Command snaccperf is the repository benchmark. It drives the simulated
// SNAcc stack through five fixed workloads, checks every result, and prints
// end-to-end metrics, simulated and host, or with -trace 1 a separate
// traced run's per-layer metrics. Every metric is printed as
//
//	workload metric value unit q1=… q3=… n=…
//
// and the last line is one JSON object with the metrics named in the
// repository's BENCHMARK.json. The command exits non-zero when a check
// fails. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"time"

	"snacc"
)

// options are the command's flags.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	runs    int
	scale   float64
}

// setupRepeats is how many times an end-to-end run sets its system up;
// setup_s is their median. The timed phase uses the last one.
const setupRepeats = 5

func main() {
	var (
		o     options
		name  string
		trace int
	)
	flag.StringVar(&name, "workload", "all", "workload to run, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of each timed phase, in host seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.IntVar(&o.runs, "runs", 1, "in-process repetitions: host samples are pooled, simulated metrics must repeat exactly")
	flag.Float64Var(&o.scale, "scale", 1, "multiplies every workload's op and client counts; small values make smoke tests")
	flag.Parse()
	o.trace = trace == 1
	// The simulation runs on one kernel goroutine and hands control between
	// process goroutines; with a second P every hand-off can move to the
	// other thread, which on a 2-CPU host made the serve workloads up to 37%
	// slower and their host rate noisier.
	runtime.GOMAXPROCS(1)

	var sel []*workload
	switch {
	case flag.NArg() > 0:
		fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	case trace != 0 && trace != 1:
		fail(fmt.Errorf("-trace must be 0 or 1, got %d", trace))
	case o.runs < 1:
		fail(fmt.Errorf("-runs must be at least 1, got %d", o.runs))
	case !(o.scale > 0 && o.scale <= 1):
		fail(fmt.Errorf("-scale must be in (0, 1], got %v", o.scale))
	case !(o.seconds >= 0 && o.seconds <= 3600):
		fail(fmt.Errorf("-seconds must be in [0, 3600], got %v", o.seconds))
	case name == "all":
		sel = workloads
	case findWorkload(name) != nil:
		sel = []*workload{findWorkload(name)}
	default:
		fail(fmt.Errorf("unknown workload %q", name))
	}

	sum := outcome{}
	qualify := len(sel) > 1
	for _, w := range sel {
		out, err := measure(w, o)
		if err != nil {
			fail(err)
		}
		printLines(os.Stdout, w.name, out)
		sum.attempted += out.attempted
		sum.failed += out.failed
		for _, m := range out.metrics {
			if qualify {
				m.name = w.name + "/" + m.name
			}
			sum.metrics = append(sum.metrics, m)
		}
	}
	if err := printJSON(os.Stdout, sum); err != nil {
		fail(err)
	}
	if sum.failed > 0 {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "snaccperf:", err)
	os.Exit(2)
}

// outcome is one workload's measurement: the metrics BENCHMARK.json
// names, further printed-only metrics, and the op accounting.
type outcome struct {
	metrics, extra    []metric
	attempted, failed int64
}

// measure runs w o.runs times. Host samples are pooled across runs;
// simulated metrics must come out identical in every run, and each one that
// does not counts as a failure.
func measure(w *workload, o options) (outcome, error) {
	run := e2eRun
	if o.trace {
		run = traceRun
	}
	var all outcome
	for r := 0; r < o.runs; r++ {
		out, err := run(w, o)
		if err != nil {
			return outcome{}, fmt.Errorf("%s: %w", w.name, err)
		}
		if r == 0 {
			all = out
			continue
		}
		all.attempted += out.attempted
		all.failed += out.failed
		all.failed += pool(all.metrics, out.metrics) + pool(all.extra, out.extra)
	}
	return all, nil
}

// pool merges a later run's metrics into dst and returns how many
// simulated ones differ.
func pool(dst, src []metric) int64 {
	var diff int64
	for i := range dst {
		if dst[i].samples == nil {
			if dst[i].value != src[i].value {
				diff++
			}
			continue
		}
		dst[i] = hostMetric(dst[i].name, dst[i].unit, append(dst[i].samples, src[i].samples...))
	}
	return diff
}

// e2eRun sets the system up setupRepeats times, then runs rounds for
// o.seconds: at least the workload's prefix, whose simulated results are
// reported.
func e2eRun(w *workload, o options) (outcome, error) {
	c := config{seed: o.seed, scale: o.scale, heap: true}
	var setups []float64
	var r runner
	for i := 0; i < setupRepeats; i++ {
		r = nil
		runtime.GC()
		start := time.Now()
		var err error
		if r, err = w.setup(c); err != nil {
			return outcome{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	var (
		out          outcome
		prefix       []roundResult
		rates, heaps []float64
	)
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i < w.prefix || time.Now().Before(deadline); i++ {
		res, err := r.round(i)
		if err != nil {
			return outcome{}, fmt.Errorf("round %d: %w", i, err)
		}
		out.account(res)
		rates = append(rates, float64(res.ops)/res.wall.Seconds())
		if i < w.prefix {
			prefix = append(prefix, res)
			heaps = append(heaps, res.heapMiB)
		}
	}
	s := simulated(prefix)
	out.metrics = []metric{
		hostMetric("host_ops_per_s", "ops/s", rates),
		hostMetric("setup_s", "s", setups),
		hostMetric("heap_live_mib", "MiB", heaps),
		s.goodput, s.p50, s.p99,
	}
	if s.lat.Count() >= 10_000 {
		out.extra = append(out.extra, latencyMetric("sim_p999_us", &s.lat, 99.9))
	}
	out.extra = append(out.extra, simMetric("failed_frac", "frac", float64(out.failed)/float64(out.attempted)))
	if w.extra != nil {
		out.extra = append(out.extra, w.extra(prefix)...)
	}
	return out, nil
}

// account adds a round's ops and failures, counting a round that leaves
// commands in flight, or spans open, as one more failure.
func (o *outcome) account(r roundResult) {
	o.attempted += r.ops
	o.failed += r.failed
	if r.c.submitted != r.c.retired {
		o.failed++
	}
	if r.c.spansOpened != r.c.spansClosed {
		o.failed++
	}
}

// simResult is the simulated end-to-end result of a set of rounds.
type simResult struct {
	lat               snacc.LatencyHist
	goodput, p50, p99 metric
	events            uint64
}

func simulated(rounds []roundResult) simResult {
	var s simResult
	var bytes int64
	var elapsed float64
	for i := range rounds {
		s.lat.Merge(&rounds[i].lat)
		bytes += rounds[i].bytes
		elapsed += float64(rounds[i].sim)
		s.events += rounds[i].c.events
	}
	s.goodput = simMetric("sim_goodput_gbps", "GB/s", float64(bytes)/elapsed)
	s.p50 = latencyMetric("sim_p50_us", &s.lat, 50)
	s.p99 = latencyMetric("sim_p99_us", &s.lat, 99)
	return s
}

func printLines(w io.Writer, workload string, out outcome) {
	for _, m := range slices.Concat(out.metrics, out.extra) {
		fmt.Fprintf(w, "%s %s %s %s q1=%s q3=%s n=%d\n", workload, m.name,
			num(m.value), m.unit, num(m.q1), num(m.q3), m.n)
	}
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// printJSON prints the result line: the op accounting and the metrics
// BENCHMARK.json lists.
func printJSON(w io.Writer, out outcome) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range out.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not finite", m.name)
		}
		metrics[m.name] = value{m.value, m.unit}
	}
	if out.attempted < 1 {
		return errors.New("no op was attempted")
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
