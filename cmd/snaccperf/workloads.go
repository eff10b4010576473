package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"snacc"
	"snacc/internal/nvme"
	"snacc/internal/obs"
	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
)

// config is what every workload is built from: the seed all inputs derive
// from, the op-count scale, whether systems trace spans, and whether rounds
// measure the heap their system holds. Measuring forces full collections
// outside the timed part of a round, so the profiled runs leave it off.
type config struct {
	seed  uint64
	scale float64
	trace bool
	heap  bool
}

// scaled returns n scaled by c.scale, and at least lo.
func (c config) scaled(n, lo int) int { return max(int(float64(n)*c.scale+0.5), lo) }

// rng returns the generator of one input stream. Separate streams keep
// inputs independent of each other: drawing more numbers in one place does
// not shift the numbers drawn in another.
func (c config) rng(stream uint64) *rand.Rand { return rand.New(rand.NewPCG(c.seed, stream)) }

// spanLimit keeps every span of a traced run; the per-layer stage latencies
// are computed from them.
const spanLimit = 1 << 22

func (c config) traceOptions() *snacc.TraceOptions {
	if !c.trace {
		return nil
	}
	return &snacc.TraceOptions{SpanLimit: spanLimit}
}

// workload is one fixed set of inputs and the system that serves them.
type workload struct {
	name string
	// prefix is the number of rounds the simulated metrics cover. A timed
	// phase runs at least these rounds, then more until its time is up.
	prefix int
	// setup builds a system and runs its fixed warm-up.
	setup func(c config) (runner, error)
	// build builds one system the way setup does, without the warm-up.
	build func(c config) error
	// extra derives workload-specific metrics from the prefix rounds.
	extra func(rounds []roundResult) []metric
}

// runner runs the rounds of a timed phase. Round i's inputs depend only
// on the seed and i.
type runner interface {
	round(i int) (roundResult, error)
}

// counters are the public counters a round moves.
type counters struct {
	events                   uint64
	submitted, retired       int64
	doorbells                int64
	recoveries               int64 // streamer retries, timeouts and protocol errors
	pcieRx                   int64 // payload bytes delivered into every PCIe port
	clusterRecoveries        int64 // cluster failovers and node deaths
	spansOpened, spansClosed int64
}

func statsCounters(s snacc.Stats) counters {
	return counters{
		events:            s.SimEvents,
		submitted:         s.CommandsSubmitted,
		retired:           s.CommandsRetired,
		doorbells:         s.DoorbellWrites,
		recoveries:        s.CommandRetries + s.CommandTimeouts + s.ProtocolErrors,
		pcieRx:            s.PCIeCardRx + s.PCIeSSDRx + s.PCIeHostRx,
		clusterRecoveries: s.Failovers + s.NodeDeaths,
		spansOpened:       s.SpansOpened,
		spansClosed:       s.SpansClosed,
	}
}

// plus returns c + sign·o, field by field.
func (c counters) plus(o counters, sign int64) counters {
	return counters{
		events:            uint64(int64(c.events) + sign*int64(o.events)),
		submitted:         c.submitted + sign*o.submitted,
		retired:           c.retired + sign*o.retired,
		doorbells:         c.doorbells + sign*o.doorbells,
		recoveries:        c.recoveries + sign*o.recoveries,
		pcieRx:            c.pcieRx + sign*o.pcieRx,
		clusterRecoveries: c.clusterRecoveries + sign*o.clusterRecoveries,
		spansOpened:       c.spansOpened + sign*o.spansOpened,
		spansClosed:       c.spansClosed + sign*o.spansClosed,
	}
}

// roundResult is what one round did.
type roundResult struct {
	ops, failed int64
	bytes       int64         // payload bytes of the ops that succeeded
	sim         sim.Time      // simulated time the round took
	wall        time.Duration // host time of the round's measured part
	lat         snacc.LatencyHist
	c           counters
	// heapMiB is the live heap the round's system holds: the heap after a
	// full collection, less the heap before the system was built.
	heapMiB float64
	stages  *obs.Breakdown // traced runs: stage latencies of the round's commands
	steps   []stepResult   // serve rounds
}

// stepResult is one step of a serve round.
type stepResult struct {
	rate    float64 // offered load, req/s
	rep     snacc.ServeReport
	hubRead snacc.LatencyHist // tenant read latency; empty without tenants
}

func (r *roundResult) record(latNs int64, n int64, failed bool) {
	r.ops++
	r.lat.Record(sim.Time(latNs))
	if failed {
		r.failed++
	} else {
		r.bytes += n
	}
}

// liveHeapMiB returns the heap left after a full collection, or 0 unless
// c.heap is set. The second collection empties what the first moved into
// sync.Pool victim caches.
func (c config) liveHeapMiB() float64 {
	if !c.heap {
		return 0
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// stagesSince returns the stage latencies of the spans accepted at or after
// t0.
func stagesSince(spans []snacc.Span, t0 sim.Time) *obs.Breakdown {
	keep := spans[:0:0]
	for _, sp := range spans {
		if sp.Stages[obs.StageAccepted] >= t0 {
			keep = append(keep, sp)
		}
	}
	return obs.NewBreakdown(keep)
}

func mergeStages(dst, src *obs.Breakdown) {
	for st := range dst.Stage {
		dst.Stage[st].Merge(&src.Stage[st])
	}
}

var workloads = []*workload{
	{
		// Work scales with bytes moved: PRP lists, PCIe payload, NAND and
		// payload copies.
		name:   "seq-4m",
		prefix: 64,
		setup: func(c config) (runner, error) {
			return newSlotRig(c, seqOptions(c), seqOpBytes, c.scaled(seqSlots, 2))
		},
		build: func(c config) error { _, err := snacc.NewSystem(seqOptions(c)); return err },
	},
	{
		// Work scales with command count: SQE fetch, doorbells, CQEs and
		// in-order retirement.
		name:   "rand-4k",
		prefix: 10,
		setup:  newRandRig,
		build:  func(c config) error { _, err := buildRandRig(c); return err },
	},
	{
		// The per-request network path (frame codec, connection table,
		// dispatch, hub DRR) below and past the knee.
		name:   "serve-ladder",
		prefix: 8,
		setup: func(c config) (runner, error) {
			return newServeRig(c, ladderOptions, ladderSteps, ladderRefStep, ladderRequests)
		},
		build: func(c config) error { _, err := snacc.NewSystem(ladderOptions(c, 0, 1)); return err },
		extra: ladderExtra,
	},
	{
		// The same layers used differently: bursts overrun the dispatch
		// queue, so 802.3x pause fires, and the 1M-client table dominates
		// the heap.
		name:   "serve-burst",
		prefix: 4,
		setup: func(c config) (runner, error) {
			return newServeRig(c, burstOptions, 1, 0, burstRequests)
		},
		build: func(c config) error { _, err := snacc.NewSystem(burstOptions(c, 0, 1)); return err },
	},
	{
		// The only path through the coordinator, the switch, the capsule
		// protocol and the sharded kernel.
		name:   "cluster-r2",
		prefix: 32,
		setup: func(c config) (runner, error) {
			return newSlotRig(c, clusterOptions(c), clusterOpBytes, c.scaled(clusterSlots, 2))
		},
		build: func(c config) error { _, err := snacc.NewSystem(clusterOptions(c)); return err },
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ---- seq-4m and cluster-r2: write a window of slots, read it back ----

const (
	seqOpBytes     = 4 << 20
	seqSlots       = 8 // a 32 MiB window
	clusterOpBytes = 64 << 10
	clusterSlots   = 256 // a 16 MiB window
	// patternStep separates the payloads cut from one random bank.
	patternStep = 64
)

func seqOptions(c config) snacc.Options {
	return snacc.Options{Variant: snacc.URAM, Seed: c.seed, KernelWorkers: 1, Trace: c.traceOptions()}
}

func clusterOptions(c config) snacc.Options {
	return snacc.Options{Seed: c.seed, KernelWorkers: 1, Trace: c.traceOptions(),
		Cluster: &snacc.ClusterOptions{Nodes: 3, Replication: 2, Quorum: 1}}
}

// slotRig is a closed loop of one caller over a window of equal slots.
// Each pass writes every slot, then reads every slot back and compares it
// byte for byte, both in an order drawn from the seed.
type slotRig struct {
	c       config
	sys     *snacc.System
	rng     *rand.Rand
	opBytes int64
	slots   int
	base    uint64
	// bank is random bytes generated at set-up; every payload is a window
	// of it, so the timed loop generates nothing.
	bank     []byte
	heapBase float64
}

func newSlotRig(c config, opts snacc.Options, opBytes int64, slots int) (*slotRig, error) {
	heapBase := c.liveHeapMiB()
	sys, err := snacc.NewSystem(opts)
	if err != nil {
		return nil, err
	}
	rng := c.rng(1)
	window := uint64(opBytes) * uint64(slots)
	r := &slotRig{c: c, sys: sys, rng: rng, opBytes: opBytes, slots: slots,
		base:     rng.Uint64N(16) * window,
		bank:     make([]byte, opBytes+int64(slots+1)*patternStep),
		heapBase: heapBase}
	for i := 0; i+8 <= len(r.bank); i += 8 {
		binary.LittleEndian.PutUint64(r.bank[i:], rng.Uint64())
	}
	// Warm-up: one pass of writes fills the window.
	if res := r.pass(0, true, false); res.failed > 0 {
		return nil, fmt.Errorf("prefill: %d of %d writes failed", res.failed, res.ops)
	}
	return r, nil
}

// payload is what slot s holds after pass k. Within a pass every slot gets
// a different window of the bank, and each pass moves every slot to a new
// one, so a misdirected or stale read-back does not match.
func (r *slotRig) payload(s, k int) []byte {
	off := (s + k) % (r.slots + 1) * patternStep
	return r.bank[off : off+int(r.opBytes)]
}

func (r *slotRig) addr(s int) uint64 { return r.base + uint64(s)*uint64(r.opBytes) }

func (r *slotRig) round(i int) (roundResult, error) {
	res := r.pass(i+1, true, true)
	res.heapMiB = r.c.liveHeapMiB() - r.heapBase
	return res, nil
}

// pass runs the writes and the checked reads of pass k.
func (r *slotRig) pass(k int, write, read bool) roundResult {
	var res roundResult
	wOrder, rOrder := r.rng.Perm(r.slots), r.rng.Perm(r.slots)
	before := statsCounters(r.sys.Stats())
	var t0 int64
	start := time.Now()
	r.sys.Execute(func(h *snacc.Handle) {
		t0 = h.Now()
		for _, s := range wOrder {
			if !write {
				break
			}
			t := h.Now()
			err := h.WriteErr(r.addr(s), r.payload(s, k))
			res.record(h.Now()-t, r.opBytes, err != nil)
		}
		for _, s := range rOrder {
			if !read {
				break
			}
			t := h.Now()
			got, err := h.ReadErr(r.addr(s), r.opBytes)
			res.record(h.Now()-t, r.opBytes, err != nil || !bytes.Equal(got, r.payload(s, k)))
		}
		res.sim = sim.Time(h.Now() - t0)
	})
	res.wall = time.Since(start)
	res.c = statsCounters(r.sys.Stats()).plus(before, -1)
	if r.c.trace {
		res.stages = stagesSince(r.sys.Spans(), sim.Time(t0))
	}
	return res
}

// ---- rand-4k: the paper's Fig 4b rig, 64 commands outstanding ----

const (
	ssdBAR      = 0x10_0000_0000
	randSpan    = 64 << 30
	randIOBytes = 4096
	randWindow  = 64 // the Streamer's in-order reorder window
	randOps     = 10_000
	randWarmOps = 10_000
)

// randRig is assembled from the same public constructors the paper-figure
// rigs use, because the facade has no asynchronous issue path.
type randRig struct {
	c        config
	k        *sim.Kernel
	pl       *tapasco.Platform
	dev      *nvme.Device
	st       *streamer.Streamer
	cl       *streamer.Client
	tr       *obs.Tracer // nil unless traced
	rng      *rand.Rand
	n        int // ops per direction per round
	heapBase float64
}

func buildRandRig(c config) (*randRig, error) {
	k := sim.NewKernel()
	pl := tapasco.NewPlatform(k, tapasco.DefaultU280())
	devCfg := nvme.DefaultConfig("ssd0", ssdBAR)
	if c.seed != 0 {
		devCfg.NAND.Seed = c.seed
	}
	dev := nvme.New(k, pl.Fabric, devCfg)
	st := pl.AddStreamer(streamer.DefaultConfig("snacc0", 0, streamer.URAM))
	r := &randRig{c: c, k: k, pl: pl, dev: dev, st: st, cl: streamer.NewClient(st),
		rng: c.rng(2), n: c.scaled(randOps, 1)}
	if c.trace {
		r.tr = obs.NewTracer(spanLimit)
		st.SetTracer(r.tr)
		dev.SetCmdObserver(func(qid, cid uint16, stage obs.Stage, at sim.Time) {
			if qid >= 1 && int(qid) <= st.IOQueues() {
				st.OnDeviceEvent(cid, stage, at)
			}
		})
	}
	drv := tapasco.NewDriver(pl, "ssd0", ssdBAR)
	err := fmt.Errorf("initialization stalled")
	k.Spawn("init", func(p *sim.Proc) {
		if err = drv.InitController(p); err == nil {
			err = drv.AttachStreamer(p, st, 1)
		}
	})
	k.Run(0)
	return r, err
}

func newRandRig(c config) (runner, error) {
	heapBase := c.liveHeapMiB()
	r, err := buildRandRig(c)
	if err != nil {
		return nil, err
	}
	r.heapBase = heapBase
	// Warm-up: half the commands read, half write.
	var res roundResult
	r.run(&res, c.scaled(randWarmOps, 1))
	if res.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d commands failed", res.failed, res.ops)
	}
	return r, nil
}

func (r *randRig) counters() counters {
	return counters{
		events:      r.k.EventsExecuted(),
		submitted:   r.st.CommandsSubmitted(),
		retired:     r.st.CommandsRetired(),
		doorbells:   r.st.DoorbellWrites(),
		recoveries:  r.st.CommandRetries() + r.st.CommandTimeouts() + r.st.ProtocolErrors(),
		pcieRx:      r.pl.Card.PayloadRx() + r.dev.Port().PayloadRx() + r.pl.Host.Port.PayloadRx(),
		spansOpened: r.tr.Opened(),
		spansClosed: r.tr.Closed(),
	}
}

func (r *randRig) round(int) (roundResult, error) {
	var res roundResult
	before := r.counters()
	start := time.Now()
	t0 := r.run(&res, r.n)
	res.wall = time.Since(start)
	res.c = r.counters().plus(before, -1)
	if r.tr != nil {
		res.stages = stagesSince(r.tr.Spans(), t0)
	}
	res.heapMiB = r.c.liveHeapMiB() - r.heapBase
	return res, nil
}

// run issues n random reads, then n random writes, and returns the
// simulated time it started at.
func (r *randRig) run(res *roundResult, n int) sim.Time {
	var t0 sim.Time
	r.k.Spawn("rand4k", func(p *sim.Proc) {
		t0 = p.Now()
		r.phase(p, false, n, res)
		r.phase(p, true, n, res)
		res.sim = p.Now() - t0
	})
	r.k.Run(0)
	return t0
}

// phase keeps randWindow commands outstanding until n have completed. A
// command's latency runs from its issue to its completion.
func (r *randRig) phase(p *sim.Proc, write bool, n int, res *roundResult) {
	k := p.Kernel()
	slots := sim.NewChan[struct{}](k, randWindow)
	done := sim.NewChan[struct{}](k, 1)
	var issued [randWindow]sim.Time
	k.Spawn("rand4k.complete", func(cp *sim.Proc) {
		for i := 0; i < n; i++ {
			var err error
			if write {
				err = r.cl.WaitWriteErr(cp)
			} else {
				_, _, err = r.cl.ConsumeReadErr(cp)
			}
			res.record(int64(cp.Now()-issued[i%randWindow]), randIOBytes, err != nil)
			slots.Get(cp)
		}
		done.Put(cp, struct{}{})
	})
	for i := 0; i < n; i++ {
		slots.Put(p, struct{}{})
		issued[i%randWindow] = p.Now()
		addr := r.rng.Uint64N(randSpan/randIOBytes) * randIOBytes
		if write {
			r.cl.WriteAsync(p, addr, randIOBytes, nil)
		} else {
			r.cl.ReadAsync(p, addr, randIOBytes)
		}
	}
	done.Get(p)
}

// ---- serve-ladder and serve-burst: the open-loop serving tier ----

const (
	ladderSteps    = 8
	ladderBaseRate = 100e3
	ladderStepRate = 50e3
	ladderRequests = 5_000 // per step
	ladderClients  = 100_000
	ladderWindow   = 128 << 20
	// ladderRefStep is the step whose latency the end-to-end metrics and
	// the hub's read latency report: 250k req/s, below the knee.
	ladderRefStep  = 3
	burstRequests  = 25_000
	burstClients   = 1_000_000
	serveWarmupReq = 10_000
	// kneeP99Us is the p99 a ladder step must meet to count as below the
	// knee.
	kneeP99Us = 500
)

// serveOptions returns the system for step g of a serve workload, counted
// over all rounds, generating n requests.
type serveOptions func(c config, g, n int) snacc.Options

func ladderOptions(c config, g, n int) snacc.Options {
	tenants := make([]snacc.TenantConfig, 2)
	for t := range tenants {
		tenants[t] = snacc.TenantConfig{Weight: 1, LBAStart: uint64(t) * ladderWindow, LBABytes: ladderWindow}
	}
	return snacc.Options{Seed: c.seed, KernelWorkers: 1, Functional: new(bool),
		Trace: c.traceOptions(), Tenants: tenants,
		Serve: &snacc.ServeOptions{
			Clients: c.scaled(ladderClients, 100), Requests: int64(n),
			RatePerSec: ladderBaseRate + ladderStepRate*float64(g%ladderSteps),
			IOBytes:    4096, SpanBytes: ladderWindow, ReadFraction: 0.7, ZipfTheta: 0.9,
			Seed: c.rng(100+uint64(g)).Uint64() | 1,
		}}
}

func burstOptions(c config, g, n int) snacc.Options {
	return snacc.Options{Seed: c.seed, KernelWorkers: 1, Functional: new(bool),
		Trace: c.traceOptions(),
		Serve: &snacc.ServeOptions{
			Clients: c.scaled(burstClients, 100), RatePerSec: 100e3, Requests: int64(n),
			IOBytes: 4096, ReadFraction: 0.7, ZipfTheta: 0.9, CloseProbability: 0.05,
			Phases: []snacc.ServePhase{{RateScale: 1, DurationNs: 1800e3}, {RateScale: 40, DurationNs: 200e3}},
			Seed:   c.rng(100+uint64(g)).Uint64() | 1,
		}}
}

// serveRig runs each round as steps, each on a fresh system, since a
// system serves once. Building a system is not part of the measured time.
type serveRig struct {
	c       config
	opts    serveOptions
	steps   int
	latStep int // the step whose latency is the round's
	n       int // requests per step
}

func newServeRig(c config, opts serveOptions, steps, latStep, requests int) (runner, error) {
	r := &serveRig{c: c, opts: opts, steps: steps, latStep: latStep, n: c.scaled(requests, 1)}
	// Warm-up: a short serve on a system that is then discarded.
	sys, err := snacc.NewSystem(opts(c, 0, c.scaled(serveWarmupReq, 1)))
	if err != nil {
		return nil, err
	}
	if _, err := sys.Serve(); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *serveRig) round(i int) (roundResult, error) {
	var res roundResult
	if r.c.trace {
		res.stages = &obs.Breakdown{}
	}
	res.steps = make([]stepResult, r.steps)
	// A served system stays reachable through its parked process
	// goroutines, so the heap after one step is the base of the next.
	heapBase := r.c.liveHeapMiB()
	for s := range res.steps {
		opts := r.opts(r.c, i*r.steps+s, r.n)
		sys, err := snacc.NewSystem(opts)
		if err != nil {
			return roundResult{}, err
		}
		before := statsCounters(sys.Stats())
		start := time.Now()
		rep, err := sys.Serve()
		res.wall += time.Since(start)
		if err != nil {
			return roundResult{}, err
		}
		res.ops += rep.Generated
		res.failed += rep.Dropped + rep.Failed + rep.Unmatched + rep.Malformed + rep.Rejected
		if rep.Generated != rep.Sent+rep.Dropped || rep.Sent != rep.Completed+rep.Failed+rep.Unmatched {
			res.failed++
		}
		res.bytes += rep.BytesRead + rep.BytesWritten
		res.sim += rep.Elapsed
		res.c = res.c.plus(statsCounters(sys.Stats()).plus(before, -1), 1)
		step := &res.steps[s]
		*step = stepResult{rate: opts.Serve.RatePerSec, rep: rep}
		for t := range sys.TenantStats() {
			rd := sys.TenantReadLatency(t)
			step.hubRead.Merge(&rd)
		}
		if r.c.trace {
			mergeStages(res.stages, obs.NewBreakdown(sys.Spans()))
		}
		heap := r.c.liveHeapMiB()
		res.heapMiB = max(res.heapMiB, heap-heapBase)
		heapBase = heap
		runtime.KeepAlive(sys)
	}
	res.lat = res.steps[r.latStep].rep.Latency
	return res, nil
}

// ladderExtra reports the p99 at every step, the knee (the highest step
// whose p99 meets kneeP99Us with nothing shed and no pause frame sent), and
// the hub's read p99 at the reference step.
func ladderExtra(rounds []roundResult) []metric {
	var m []metric
	var knee float64
	var hub snacc.LatencyHist
	for s := 0; s < ladderSteps; s++ {
		var lat snacc.LatencyHist
		clean := true
		for _, r := range rounds {
			st := &r.steps[s]
			lat.Merge(&st.rep.Latency)
			clean = clean && st.rep.Dropped == 0 && st.rep.PausesSent == 0
			if s == ladderRefStep {
				hub.Merge(&st.hubRead)
			}
		}
		rate := rounds[0].steps[s].rate
		p99 := latencyMetric(fmt.Sprintf("sim_p99_us_at_%.0fk", rate/1e3), &lat, 99)
		if p99.value <= kneeP99Us && clean {
			knee = max(knee, rate)
		}
		m = append(m, p99)
	}
	return append(m, simMetric("sim_knee_kreq_s", "kreq/s", knee/1e3),
		latencyMetric("streamer.hub_read_us_p99", &hub, 99))
}
