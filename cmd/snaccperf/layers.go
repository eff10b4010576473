package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"snacc/internal/ethernet"
	"snacc/internal/nvme"
	"snacc/internal/obs"
	"snacc/internal/pcie"
	"snacc/internal/serve"
	"snacc/internal/sim"
	"snacc/internal/spdk"
	wl "snacc/internal/workload"
)

// layers are the packages CPU time is charged to, plus runtime (samples
// with no frame of this module), bench (this command's own frames) and
// other (the remaining internal packages).
var layers = []string{"sim", "pcie", "nvme", "streamer", "memmodel", "tapasco", "ethernet",
	"serve", "workload", "cluster", "snacc", "obs", "runtime", "bench", "other"}

// prefixRun is one pass over a workload's prefix rounds.
type prefixRun struct {
	rounds  []roundResult
	wall    time.Duration // summed over the rounds' measured parts
	mallocs uint64
	shares  map[string]float64 // CPU share per layer
}

// runPrefix sets the workload up once and runs its prefix rounds under a
// CPU profile.
func runPrefix(w *workload, c config) (prefixRun, error) {
	r, err := w.setup(c)
	if err != nil {
		return prefixRun{}, fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	var run prefixRun
	var prof bytes.Buffer
	var m0, m1 runtime.MemStats
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return prefixRun{}, err
	}
	runtime.ReadMemStats(&m0)
	for i := 0; i < w.prefix; i++ {
		res, err := r.round(i)
		if err != nil {
			pprof.StopCPUProfile()
			return prefixRun{}, fmt.Errorf("round %d: %w", i, err)
		}
		run.rounds = append(run.rounds, res)
		run.wall += res.wall
	}
	runtime.ReadMemStats(&m1)
	pprof.StopCPUProfile()
	run.mallocs = m1.Mallocs - m0.Mallocs
	run.shares, err = layerShares(prof.Bytes())
	return run, err
}

// traceRun runs the prefix untraced, then again with span tracing on, and
// reports per-layer metrics: counters and the CPU profile from the
// untraced run, stage latencies from the traced one, and timings of direct
// calls into single layers. The two runs must simulate identically.
func traceRun(w *workload, o options) (outcome, error) {
	c := config{seed: o.seed, scale: o.scale}
	plain, err := runPrefix(w, c)
	if err != nil {
		return outcome{}, err
	}
	tc := c
	tc.trace = true
	traced, err := runPrefix(w, tc)
	if err != nil {
		return outcome{}, fmt.Errorf("traced: %w", err)
	}
	builds, err := buildMs(w, c)
	if err != nil {
		return outcome{}, err
	}

	var out outcome
	for _, r := range plain.rounds {
		out.account(r)
	}
	for _, r := range traced.rounds {
		out.account(r)
	}
	a, b := simulated(plain.rounds), simulated(traced.rounds)
	for _, pair := range [][2]metric{{a.goodput, b.goodput}, {a.p50, b.p50}, {a.p99, b.p99}} {
		if pair[0].value != pair[1].value {
			out.failed++
		}
	}
	if a.events != b.events {
		out.failed++
	}

	var (
		ops, bytes, generated, pauses, dropped int64
		cmds, doorbells, recov, clRecov, rx    int64
		dispPeak, connState                    float64
		stages                                 obs.Breakdown
	)
	for _, r := range plain.rounds {
		ops += r.ops
		bytes += r.bytes
		cmds += r.c.submitted
		doorbells += r.c.doorbells
		recov += r.c.recoveries
		clRecov += r.c.clusterRecoveries
		rx += r.c.pcieRx
		for _, st := range r.steps {
			generated += st.rep.Generated
			pauses += st.rep.PausesSent
			dropped += st.rep.Dropped
			dispPeak = max(dispPeak, float64(st.rep.PeakDispatch)/float64(st.rep.DispatchCap))
			connState = max(connState, float64(st.rep.ConnStateBytes)/(1<<20))
		}
	}
	for _, r := range traced.rounds {
		mergeStages(&stages, r.stages)
	}
	m := []metric{
		simMetric("sim.events_per_op", "events/op", ratio(int64(a.events), ops)),
		hostMetric("sim.host_ns_per_event", "ns", []float64{float64(plain.wall.Nanoseconds()) / float64(a.events)}),
		hostMetric("sim.allocs_per_op", "allocs/op", []float64{float64(plain.mallocs) / float64(ops)}),
		hostMetric("sim.event_ns", "ns", microNs(c.scaled(200_000, 1000), simEventCalls)),
		simMetric("pcie.payload_x", "ratio", ratio(rx, bytes)),
		hostMetric("pcie.read_rtt_ns", "ns", microNs(c.scaled(20_000, 100), pcieReadCalls)),
		simMetric("nvme.cmds_per_op", "cmds/op", ratio(cmds, ops)),
		hostMetric("nvme.cmd_ns", "ns", microNs(c.scaled(5_000, 50), nvmeCmdCalls)),
		simMetric("streamer.doorbells_per_cmd", "ratio", ratio(doorbells, cmds)),
		simMetric("streamer.recoveries", "count", float64(recov)),
		hostMetric("tapasco.build_ms", "ms", builds),
		simMetric("ethernet.pauses_per_kreq", "pauses/kreq", 1000*ratio(pauses, generated)),
		hostMetric("ethernet.frame_ns", "ns", microNs(c.scaled(50_000, 500), frameCalls)),
		simMetric("serve.dispatch_peak_frac", "frac", dispPeak),
		simMetric("serve.shed_frac", "frac", ratio(dropped, generated)),
		simMetric("serve.conn_state_mib", "MiB", connState),
		hostMetric("serve.codec_ns", "ns", microNs(c.scaled(1_000_000, 1000), codecCalls)),
		hostMetric("workload.arrival_ns", "ns", microNs(c.scaled(1_000_000, 1000), arrivalCalls)),
		simMetric("cluster.recoveries", "count", float64(clRecov)),
		hostMetric("obs.trace_overhead_frac", "frac", []float64{traced.wall.Seconds()/plain.wall.Seconds() - 1}),
	}
	for _, l := range layers {
		m = append(m, hostMetric(l+".self_frac", "frac", []float64{plain.shares[l]}))
	}
	out.metrics = m
	// Simulated stage latencies are printed but left out of the result
	// line: on some workloads a stage takes the same time on every seed.
	out.extra = []metric{
		latencyMetric("nvme.fetch_us_p50", &stages.Stage[obs.StageFetched], 50),
		latencyMetric("nvme.cqe_us_p99", &stages.Stage[obs.StageCQE], 99),
		latencyMetric("streamer.bufready_us_p99", &stages.Stage[obs.StageBufReady], 99),
		latencyMetric("streamer.retired_us_p99", &stages.Stage[obs.StageRetired], 99),
	}
	if w.extra != nil {
		out.extra = append(out.extra, w.extra(plain.rounds)...)
	}
	return out, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// buildMs times 11 bare builds of the workload's system.
func buildMs(w *workload, c config) ([]float64, error) {
	var ms []float64
	for i := 0; i < 11; i++ {
		start := time.Now()
		if err := w.build(c); err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		ms = append(ms, float64(time.Since(start).Microseconds())/1e3)
	}
	return ms, nil
}

// ---- timings of direct calls into one layer ----

// microNs runs calls(n) five times and returns the host ns per call of
// each batch. calls returns the time its n calls took, leaving out its own
// set-up.
func microNs(n int, calls func(n int) time.Duration) []float64 {
	var ns []float64
	for i := 0; i < 5; i++ {
		ns = append(ns, float64(calls(n).Nanoseconds())/float64(n))
	}
	return ns
}

// simEventCalls schedules and runs n events, 64 pending at a time
// (Kernel.At and Run).
func simEventCalls(n int) time.Duration {
	k := sim.NewKernel()
	left := n
	var tick func()
	tick = func() {
		if left > 0 {
			left--
			k.At(k.Now()+sim.Time(1+left%7), tick)
		}
	}
	start := time.Now()
	for i := 0; i < 64; i++ {
		k.At(sim.Time(i), tick)
	}
	k.Run(0)
	return time.Since(start)
}

// pcieReadCalls makes n 4 KiB non-posted reads of host memory from a
// device port (Port.ReadB).
func pcieReadCalls(n int) time.Duration {
	k := sim.NewKernel()
	f := pcie.NewFabric(k, pcie.DefaultConfig())
	hc := pcie.DefaultHostConfig()
	pcie.NewHost(f, hc)
	dev := f.AttachPort("dev", pcie.LinkConfig{Gen: pcie.Gen4, Lanes: 4}, nil)
	f.IOMMU().Grant("dev", hc.MemBase, 1<<20)
	var d time.Duration
	k.Spawn("reader", func(p *sim.Proc) {
		start := time.Now()
		for i := 0; i < n; i++ {
			dev.ReadB(p, hc.MemBase, 4096, nil)
		}
		d = time.Since(start)
	})
	k.Run(0)
	return d
}

// nvmeCmdCalls reads 4 KiB n times at queue depth 1 through the SPDK
// driver on a bare device (spdk.Latency).
func nvmeCmdCalls(n int) time.Duration {
	k := sim.NewKernel()
	f := pcie.NewFabric(k, pcie.DefaultConfig())
	hc := pcie.DefaultHostConfig()
	host := pcie.NewHost(f, hc)
	nvme.New(k, f, nvme.DefaultConfig("ssd0", ssdBAR))
	f.IOMMU().Grant("ssd0", hc.MemBase, hc.MemSize)
	var d time.Duration
	k.Spawn("spdk", func(p *sim.Proc) {
		drv, err := spdk.Attach(p, host, ssdBAR, spdk.DefaultDriverConfig())
		if err != nil {
			panic(fmt.Sprintf("spdk attach: %v", err))
		}
		start := time.Now()
		spdk.Latency(p, drv, nvme.OpRead, 4096, n, 1)
		d = time.Since(start)
	})
	k.Run(0)
	return d
}

// frameCalls sends n 1500-byte frames over a link with pause off
// (MAC.Send, then Recv at the far end).
func frameCalls(n int) time.Duration {
	k := sim.NewKernel()
	cfg := ethernet.DefaultConfig()
	cfg.PauseEnabled = false
	a, b := ethernet.NewMAC(k, "a", cfg), ethernet.NewMAC(k, "b", cfg)
	ethernet.Connect(a, b)
	k.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			a.Send(p, ethernet.Frame{Bytes: 1500})
		}
	})
	k.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			b.Recv(p)
		}
	})
	start := time.Now()
	k.Run(0)
	return time.Since(start)
}

// codecCalls encodes and decodes n request capsules (AppendRequest and
// ParseRequest).
func codecCalls(n int) time.Duration {
	buf := make([]byte, 0, 64)
	req := serve.Request{ID: 1, Conn: 7, Op: serve.OpRead, Addr: 1 << 20, N: 4096}
	start := time.Now()
	for i := 0; i < n; i++ {
		req.ID = uint64(i)
		buf = serve.AppendRequest(buf[:0], req)
		if _, _, err := serve.ParseRequest(buf); err != nil {
			panic(fmt.Sprintf("capsule round trip: %v", err))
		}
	}
	return time.Since(start)
}

// arrivalCalls draws n arrivals of a zipfian open-loop stream
// (OpenLoop.Next).
func arrivalCalls(n int) time.Duration {
	gen, err := wl.NewOpenLoop(wl.OpenLoopSpec{
		Clients: 100_000, RatePerSec: 500e3, Ops: int64(n), ReadFraction: 0.7,
		IOBytes: 4096, SpanBytes: 256 << 20, ZipfTheta: 0.9, ZipfBuckets: 64,
		CloseProb: 0.05, Seed: 1})
	if err != nil {
		panic(fmt.Sprintf("open loop: %v", err))
	}
	start := time.Now()
	for _, ok := gen.Next(); ok; _, ok = gen.Next() {
	}
	return time.Since(start)
}

// ---- CPU profile attribution ----

// benchPkg is this command's import path; its frames carry it instead of
// "main" when it runs as a test binary.
const benchPkg = "snacc/cmd/snaccperf"

// layerOf maps a function name to its layer, or reports that the function
// is outside this module.
func layerOf(fn string) (string, bool) {
	switch {
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, benchPkg+"."):
		return "bench", true
	case strings.HasPrefix(fn, "snacc."):
		return "snacc", true
	case strings.HasPrefix(fn, "snacc/internal/"):
		pkg, _, _ := strings.Cut(strings.TrimPrefix(fn, "snacc/internal/"), ".")
		if slices.Contains(layers, pkg) {
			return pkg, true
		}
		return "other", true
	}
	return "", false
}

// layerShares reads a CPU profile (gzipped pprof protobuf) and returns the
// share of samples charged to each layer. A sample is charged to the layer
// of its innermost frame in this module, so runtime and standard-library
// calls count toward their caller; a sample with no such frame is runtime.
func layerShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs    []string
		samples [][]byte
		funcs   = map[uint64]uint64{}   // function id -> name index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = protoFields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Profile.sample
			samples = append(samples, b)
		case 4: // Profile.location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // Location.id
					id = v
				case 4: // Location.line
					return protoFields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 { // Line.function_id
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Profile.function
			var id, name uint64
			err := protoFields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1: // Function.id
					id = v
				case 2: // Function.name
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	count := map[string]uint64{}
	var total uint64
	for _, s := range samples {
		var ids, values []uint64
		err := protoFields(s, func(num int, v uint64, b []byte) error {
			var err error
			switch num {
			case 1: // Sample.location_id, leaf first
				ids, err = appendVarints(ids, v, b)
			case 2: // Sample.value: sample count, then CPU ns
				values, err = appendVarints(values, v, b)
			}
			return err
		})
		if err != nil || len(values) == 0 {
			return nil, fmt.Errorf("profile: bad sample: %v", err)
		}
		layer := "runtime"
	frames:
		for _, id := range ids {
			for _, fn := range locs[id] {
				if i := funcs[fn]; i < uint64(len(strs)) {
					if l, ok := layerOf(strs[i]); ok {
						layer = l
						break frames
					}
				}
			}
		}
		count[layer] += values[0]
		total += values[0]
	}
	shares := map[string]float64{}
	for l, n := range count {
		shares[l] = float64(n) / float64(total)
	}
	return shares, nil
}

var errProto = errors.New("malformed protobuf")

// protoFields calls fn for each field of a protobuf message with its
// number and either its varint value or its length-delimited bytes.
func protoFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if key&7 == 5 {
				size = 4
			}
			if len(b) < size {
				return errProto
			}
			b = b[size:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errProto
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (data) or not (v).
func appendVarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errProto
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}
