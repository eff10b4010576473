package streamer

import (
	"fmt"
	"sort"

	"snacc/internal/axis"
	"snacc/internal/nvme"
	"snacc/internal/obs"
	"snacc/internal/pcie"
	"snacc/internal/sim"
)

// This file virtualizes one streamer for N tenants — the UltraShare-style
// sharing layer the ROADMAP's serving north-star needs. Each tenant gets
// its own PE-facing command/data stream pair and an isolated LBA window; a
// weighted deficit-round-robin scheduler with per-tenant token buckets and
// admission control multiplexes the tenants onto the shared submission
// path (and from there across the streamer's I/O queue pairs). Submissions
// outside a tenant's window are rejected with a per-tenant CmdError instead
// of silently touching a neighbor's blocks.

// TenantConfig describes one tenant of a virtualized streamer.
type TenantConfig struct {
	// Name labels the tenant in stats and bench output. Defaults to
	// "tenant<i>".
	Name string
	// Weight is the tenant's DRR scheduling weight: with a backlog on
	// every tenant, dispatched bytes are proportional to weight.
	// Defaults to 1; must be >= 0.
	Weight int
	// LBAStart/LBABytes delimit the tenant's namespace window in device
	// bytes. Tenant addresses are window-relative: tenant address a maps
	// to device byte LBAStart+a, and a+len must stay within LBABytes.
	// Both must be 512-aligned and windows must not overlap.
	LBAStart uint64
	LBABytes int64
	// RateBytesPerSec is the tenant's token-bucket rate limit; 0 means
	// unlimited.
	RateBytesPerSec int64
	// BurstBytes is the token-bucket capacity (how far the tenant may get
	// ahead of its rate). Defaults to 4 MiB when a rate is set. A single
	// command larger than the burst still dispatches by borrowing: the
	// bucket goes negative and later dispatches wait for the debt to
	// refill.
	BurstBytes int64
	// MaxInflight is the admission-control cap: commands accepted from
	// this tenant's streams but not yet completed. The tenant's own front
	// blocks at the cap (backpressuring only its streams). Defaults to 64.
	MaxInflight int
}

// HubOptions tunes the scheduler shared by all tenants of a hub.
type HubOptions struct {
	// QuantumBytes is the DRR quantum credited per weight unit each round
	// a tenant is backlogged. Defaults to 256 KiB.
	QuantumBytes int64
	// MaxOutstanding caps commands dispatched to the backend but not yet
	// completed, across all tenants. This is the window the scheduler
	// actually arbitrates: without it the backend's deep FIFOs would
	// absorb every backlog and DRR order would not translate into service
	// order. Defaults to 16.
	MaxOutstanding int
	// FIFO disables the QoS policy: jobs dispatch in global arrival order
	// with no weights, rate limits, or fairness — only the MaxOutstanding
	// window is kept, so the comparison against DRR isolates the policy.
	// The bench uses it as the noisy-neighbor baseline.
	FIFO bool
}

// TenantStats is a snapshot of one tenant's counters. All fields are
// values, so the slice returned by TenantHub.Stats is a true copy.
type TenantStats struct {
	Name string
	// Reads/Writes count completed commands, including rejected ones.
	Reads  int64
	Writes int64
	// BytesRead counts payload bytes delivered to the tenant; BytesWritten
	// counts bytes of writes that reached the backend. Rejected commands
	// contribute to neither, so across tenants these sum to the backend's
	// global byte counters.
	BytesRead    int64
	BytesWritten int64
	// Rejected counts commands refused for leaving the tenant's LBA window
	// (or malformed: zero/unaligned length). They complete on the tenant's
	// streams with CmdError{Status: nvme.StatusLBAOutOfRange}.
	Rejected int64
	// Errors counts commands that reached the backend and completed with
	// an error (fault injection, dead controller, degraded stripes).
	Errors int64
	// Throttled counts scheduler passes that found this tenant's head job
	// token-limited.
	Throttled int64
	// Dispatched counts jobs handed to the shared submission path.
	Dispatched int64
	// MaxQueued is the high-water mark of admitted-but-incomplete
	// commands.
	MaxQueued int64
}

// tenantJob is one accepted command travelling hub-internally.
type tenantJob struct {
	tenant     int
	isWrite    bool
	addr       uint64 // device byte address (window-translated)
	n          int64
	data       []byte
	rejected   bool
	acceptedAt sim.Time
}

// tokenBucket meters dispatched bytes against a refill rate. level may go
// negative (borrowing) so one oversized command cannot starve forever.
type tokenBucket struct {
	rate  int64 // bytes per second; <= 0 disables the bucket
	burst int64 // cap on level
	level int64
	rem   int64 // byte-nanoseconds carried between refills
	last  sim.Time
}

func (b *tokenBucket) refill(now sim.Time) {
	if b.rate <= 0 || now <= b.last {
		b.last = now
		return
	}
	dt := int64(now - b.last)
	b.last = now
	if b.level >= b.burst {
		b.rem = 0
		return
	}
	if dt > (int64(1)<<62)/b.rate {
		b.level = b.burst
		b.rem = 0
		return
	}
	total := b.rate*dt + b.rem
	b.level += total / int64(sim.Second)
	b.rem = total % int64(sim.Second)
	if b.level >= b.burst {
		b.level = b.burst
		b.rem = 0
	}
}

// take charges cost when the bucket is non-negative and returns 0; otherwise
// it returns the time until the debt refills to zero. Charging may overdraw
// the bucket — that is the borrowing that lets a command larger than the
// burst through while throttling everything after it.
func (b *tokenBucket) take(now sim.Time, cost int64) sim.Time {
	if b.rate <= 0 {
		return 0
	}
	b.refill(now)
	if b.level >= 0 {
		b.level -= cost
		return 0
	}
	debt := -b.level
	wait := sim.Time((debt*int64(sim.Second) + b.rate - 1) / b.rate)
	if wait < 1 {
		wait = 1
	}
	return wait
}

// Tenant is the hub-side state of one tenant: its PE-facing port plus
// scheduler bookkeeping. PEs drive the port's streams (or a Client from
// TenantHub.Client); everything else is the hub's.
type Tenant struct {
	// Port mirrors the Streamer's PE-facing stream interface, scoped to
	// this tenant.
	Port

	cfg     TenantConfig
	idx     int
	quantum int64 // QuantumBytes * Weight, precomputed

	pending    sim.FIFO[tenantJob]
	deficit    int64
	bucket     tokenBucket
	admitted   int
	admWaiters []*sim.Proc

	stats    TenantStats
	readLat  obs.Hist
	writeLat obs.Hist
}

// release returns one admission slot and wakes blocked fronts.
func (t *Tenant) release() {
	t.admitted--
	if len(t.admWaiters) > 0 {
		waiters := t.admWaiters
		t.admWaiters = nil
		for _, w := range waiters {
			w.Wake()
		}
	}
}

// TenantHub virtualizes one Streamer for N tenants. Create it once after
// the Streamer is initialized; drive tenants through Client(i) or their
// exported streams. All hub procs are daemons, so an idle hub never keeps
// the kernel alive.
type TenantHub struct {
	k *sim.Kernel
	// target drives the Streamer's port. Commands enter it on the hub's
	// single issue proc, which keeps the write stream framed and makes
	// per-direction completion order equal issue order; the completion
	// procs pair results with jobs in that order.
	target  *Client
	tenants []*Tenant
	quantum int64
	fifo    bool
	rr      int

	// outstanding counts dispatched-but-incomplete backend commands
	// against maxOutstanding — the submission window DRR arbitrates.
	outstanding    int
	maxOutstanding int
	// fifoPending is the global arrival-order queue of the FIFO baseline.
	fifoPending sim.FIFO[tenantJob]

	dispatchQ    *sim.Chan[tenantJob]
	readPending  *sim.Chan[tenantJob]
	writePending *sim.Chan[tenantJob]
	workSignal   *sim.Chan[struct{}]
}

// NewTenantHub virtualizes a single streamer for the given tenants.
func NewTenantHub(k *sim.Kernel, st *Streamer, cfgs []TenantConfig, opts HubOptions) (*TenantHub, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("streamer: tenant hub needs at least one tenant")
	}
	quantum := opts.QuantumBytes
	if quantum == 0 {
		quantum = 256 * sim.KiB
	}
	if quantum < 0 {
		return nil, fmt.Errorf("streamer: QuantumBytes must be positive, got %d", opts.QuantumBytes)
	}
	maxOut := opts.MaxOutstanding
	if maxOut == 0 {
		maxOut = 16
	}
	if maxOut < 0 {
		return nil, fmt.Errorf("streamer: MaxOutstanding must be positive, got %d", opts.MaxOutstanding)
	}
	h := &TenantHub{
		k:              k,
		target:         NewClient(st),
		quantum:        quantum,
		fifo:           opts.FIFO,
		maxOutstanding: maxOut,
		dispatchQ:      sim.NewChan[tenantJob](k, 256),
		readPending:    sim.NewChan[tenantJob](k, 1<<16),
		writePending:   sim.NewChan[tenantJob](k, 1<<16),
		workSignal:     sim.NewChan[struct{}](k, 1),
	}
	for i, cfg := range cfgs {
		if cfg.Name == "" {
			cfg.Name = fmt.Sprintf("tenant%d", i)
		}
		if cfg.Weight == 0 {
			cfg.Weight = 1
		}
		if cfg.Weight < 0 {
			return nil, fmt.Errorf("streamer: tenant %q: negative weight %d", cfg.Name, cfg.Weight)
		}
		if cfg.LBABytes <= 0 {
			return nil, fmt.Errorf("streamer: tenant %q: LBABytes must be positive, got %d", cfg.Name, cfg.LBABytes)
		}
		if cfg.LBAStart%512 != 0 || cfg.LBABytes%512 != 0 {
			return nil, fmt.Errorf("streamer: tenant %q: LBA window %d@%#x not 512-aligned", cfg.Name, cfg.LBABytes, cfg.LBAStart)
		}
		if cfg.RateBytesPerSec < 0 {
			return nil, fmt.Errorf("streamer: tenant %q: negative rate %d", cfg.Name, cfg.RateBytesPerSec)
		}
		if cfg.RateBytesPerSec > 0 && cfg.BurstBytes == 0 {
			cfg.BurstBytes = 4 * sim.MiB
		}
		if cfg.BurstBytes < 0 {
			return nil, fmt.Errorf("streamer: tenant %q: negative burst %d", cfg.Name, cfg.BurstBytes)
		}
		if cfg.MaxInflight == 0 {
			cfg.MaxInflight = 64
		}
		if cfg.MaxInflight < 0 {
			return nil, fmt.Errorf("streamer: tenant %q: negative MaxInflight %d", cfg.Name, cfg.MaxInflight)
		}
		name := fmt.Sprintf("tenant%d.%s", i, cfg.Name)
		t := &Tenant{
			Port:    newPort(k, name, st.cfg.StreamCfg),
			cfg:     cfg,
			idx:     i,
			quantum: quantum * int64(cfg.Weight),
			bucket: tokenBucket{
				rate:  cfg.RateBytesPerSec,
				burst: cfg.BurstBytes,
				level: cfg.BurstBytes,
			},
		}
		t.stats.Name = cfg.Name
		h.tenants = append(h.tenants, t)
	}
	if err := h.checkOverlap(); err != nil {
		return nil, err
	}
	for i, t := range h.tenants {
		t := t
		k.Spawn(fmt.Sprintf("hub.t%d.rdfront", i), h.readFront(t))
		k.Spawn(fmt.Sprintf("hub.t%d.wrfront", i), h.writeFront(t))
	}
	k.Spawn("hub.sched", h.schedLoop)
	k.Spawn("hub.issue", h.issueLoop)
	k.Spawn("hub.rdcomplete", h.readCompleteLoop)
	k.Spawn("hub.wrcomplete", h.writeCompleteLoop)
	return h, nil
}

// checkOverlap rejects overlapping tenant LBA windows — the windows are the
// isolation boundary, so an overlap would be silent shared state.
func (h *TenantHub) checkOverlap() error {
	idx := make([]int, len(h.tenants))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return h.tenants[idx[a]].cfg.LBAStart < h.tenants[idx[b]].cfg.LBAStart
	})
	for i := 1; i < len(idx); i++ {
		prev, cur := h.tenants[idx[i-1]].cfg, h.tenants[idx[i]].cfg
		if prev.LBAStart+uint64(prev.LBABytes) > cur.LBAStart {
			return fmt.Errorf("streamer: tenant LBA windows overlap: %q [%#x,%#x) and %q [%#x,%#x)",
				prev.Name, prev.LBAStart, prev.LBAStart+uint64(prev.LBABytes),
				cur.Name, cur.LBAStart, cur.LBAStart+uint64(cur.LBABytes))
		}
	}
	return nil
}

// validate bounds-checks a window-relative request. It must hold BEFORE the
// window translation: addr and addr+n in [0, LBABytes], 512-aligned, n > 0.
func (h *TenantHub) validate(t *Tenant, j *tenantJob) bool {
	if j.n <= 0 || j.addr%512 != 0 || j.n%512 != 0 {
		return false
	}
	end := j.addr + uint64(j.n)
	return end >= j.addr && end <= uint64(t.cfg.LBABytes)
}

// enqueue admits one command from a tenant front: block at the admission
// cap, validate and window-translate, then queue for the scheduler (or
// dispatch directly in FIFO mode).
func (h *TenantHub) enqueue(p *sim.Proc, t *Tenant, j tenantJob) {
	for t.admitted >= t.cfg.MaxInflight {
		t.admWaiters = append(t.admWaiters, p)
		p.Park()
	}
	t.admitted++
	if int64(t.admitted) > t.stats.MaxQueued {
		t.stats.MaxQueued = int64(t.admitted)
	}
	j.acceptedAt = p.Now()
	if h.validate(t, &j) {
		j.addr += t.cfg.LBAStart
	} else {
		j.rejected = true
		j.data = nil
		t.stats.Rejected++
	}
	if h.fifo {
		h.fifoPending.Push(j)
	} else {
		t.pending.Push(j)
	}
	h.workSignal.TryPut(struct{}{})
}

func (h *TenantHub) readFront(t *Tenant) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		p.SetDaemon(true)
		for {
			pkt := t.ReadCmd.Recv(p)
			req, ok := pkt.Meta.(ReadRequest)
			if !ok {
				panic("streamer: tenant read stream must carry ReadRequest metadata")
			}
			h.enqueue(p, t, tenantJob{tenant: t.idx, addr: req.Addr, n: req.Len})
		}
	}
}

func (h *TenantHub) writeFront(t *Tenant) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		p.SetDaemon(true)
		for {
			head := t.WriteIn.Recv(p)
			req, ok := head.Meta.(WriteRequest)
			if !ok {
				panic("streamer: tenant write stream must start with WriteRequest metadata")
			}
			var n int64
			var data []byte
			done := head.Last
			for !done {
				pkt := t.WriteIn.Recv(p)
				if !pkt.Data.IsNil() {
					data = append(data, pkt.Data.Bytes()...)
				}
				n += pkt.Bytes
				done = pkt.Last
			}
			h.enqueue(p, t, tenantJob{tenant: t.idx, isWrite: true, addr: req.Addr, n: n, data: data})
		}
	}
}

// dispatch hands one job to the shared submission path, charging one
// outstanding-window slot for jobs that will reach the backend.
func (h *TenantHub) dispatch(p *sim.Proc, j tenantJob) {
	if !j.rejected {
		h.outstanding++
	}
	h.tenants[j.tenant].stats.Dispatched++
	h.dispatchQ.Put(p, j)
}

// schedLoop is the QoS scheduler: deficit round robin over the tenants with
// per-tenant token buckets (or global arrival order in FIFO mode), gated by
// the shared outstanding-command window. Each pass visits every tenant
// once; a pass that made no progress but left a deficit-limited backlog
// repeats immediately (deficits accumulate at zero simulated cost); a
// token-limited pass arms a wakeup for the earliest refill; otherwise the
// scheduler parks on workSignal until an arrival or a completion.
func (h *TenantHub) schedLoop(p *sim.Proc) {
	p.SetDaemon(true)
	for {
		var progress, again bool
		var wait sim.Time
		if h.fifo {
			progress = h.fifoPass(p)
		} else {
			progress, again, wait = h.schedulePass(p)
		}
		if progress || again {
			continue
		}
		if wait > 0 {
			h.k.After(wait, func() { h.workSignal.TryPut(struct{}{}) })
		}
		h.workSignal.Get(p)
	}
}

// fifoPass dispatches the baseline's global queue in arrival order, only
// honoring the outstanding window.
func (h *TenantHub) fifoPass(p *sim.Proc) (progress bool) {
	for h.fifoPending.Len() > 0 {
		j := h.fifoPending.Peek()
		if !j.rejected && h.outstanding >= h.maxOutstanding {
			break
		}
		h.fifoPending.Pop()
		h.dispatch(p, j)
		progress = true
	}
	return progress
}

// schedulePass runs one DRR round. It reports whether any job dispatched,
// whether some tenant's head is deficit-limited (caller should loop so the
// deficit keeps accumulating), and the shortest token-refill wait among
// token-limited tenants (0 if none). A full outstanding window aborts the
// pass — the next completion frees a slot and re-signals.
func (h *TenantHub) schedulePass(p *sim.Proc) (progress, again bool, wait sim.Time) {
	n := len(h.tenants)
	for i := 0; i < n; i++ {
		t := h.tenants[(h.rr+i)%n]
		if t.pending.Len() == 0 {
			// An idle tenant keeps no credit: deficits only measure
			// rounds spent backlogged, per classic DRR.
			t.deficit = 0
			continue
		}
		t.deficit += t.quantum
		for t.pending.Len() > 0 {
			j := t.pending.Peek()
			if j.rejected {
				// Rejections never reach the device; completing them
				// costs no bandwidth, so they bypass window and meters.
				t.pending.Pop()
				h.dispatch(p, j)
				progress = true
				continue
			}
			if h.outstanding >= h.maxOutstanding {
				h.rr = (h.rr + 1) % n
				return progress, false, 0
			}
			if j.n > t.deficit {
				again = true
				break
			}
			if w := t.bucket.take(p.Now(), j.n); w > 0 {
				t.stats.Throttled++
				if wait == 0 || w < wait {
					wait = w
				}
				break
			}
			t.deficit -= j.n
			t.pending.Pop()
			h.dispatch(p, j)
			progress = true
		}
		if t.pending.Len() == 0 {
			t.deficit = 0
		}
	}
	h.rr = (h.rr + 1) % n
	return progress, again, wait
}

// issueLoop serializes dispatched jobs into the backend. A single proc
// keeps the backend's write-stream framing intact and makes per-direction
// completion order equal dispatch order.
func (h *TenantHub) issueLoop(p *sim.Proc) {
	p.SetDaemon(true)
	for {
		j := h.dispatchQ.Get(p)
		if !j.rejected {
			if j.isWrite {
				h.target.writeAsyncT(p, j.tenant, j.addr, j.n, pcie.Bytes(j.data))
			} else {
				h.target.readAsyncT(p, j.tenant, j.addr, j.n)
			}
		}
		if j.isWrite {
			h.writePending.Put(p, j)
		} else {
			h.readPending.Put(p, j)
		}
	}
}

// rejectError is the per-tenant error a window violation completes with.
func rejectError(j tenantJob) CmdError {
	return CmdError{Status: nvme.StatusLBAOutOfRange, Addr: j.addr, Len: j.n}
}

func (h *TenantHub) readCompleteLoop(p *sim.Proc) {
	p.SetDaemon(true)
	for {
		j := h.readPending.Get(p)
		t := h.tenants[j.tenant]
		if j.rejected {
			t.ReadData.Send(p, axis.Packet{Last: true, Meta: rejectError(j)})
		} else {
			n, err := h.target.forwardRead(p, t.ReadData)
			t.stats.BytesRead += n
			if err != nil {
				t.stats.Errors++
			}
			t.readLat.Record(p.Now() - j.acceptedAt)
		}
		t.stats.Reads++
		h.complete(j, t)
	}
}

// complete releases a finished job's admission slot and outstanding-window
// slot, and nudges the scheduler.
func (h *TenantHub) complete(j tenantJob, t *Tenant) {
	if !j.rejected {
		h.outstanding--
	}
	t.release()
	h.workSignal.TryPut(struct{}{})
}

func (h *TenantHub) writeCompleteLoop(p *sim.Proc) {
	p.SetDaemon(true)
	for {
		j := h.writePending.Get(p)
		t := h.tenants[j.tenant]
		if j.rejected {
			t.WriteResp.Send(p, axis.Packet{Last: true, Meta: rejectError(j)})
		} else {
			err := h.target.WaitWriteErr(p)
			pkt := axis.Packet{Last: true}
			if err != nil {
				t.stats.Errors++
				pkt.Meta = err
			}
			t.stats.BytesWritten += j.n
			t.writeLat.Record(p.Now() - j.acceptedAt)
			t.WriteResp.Send(p, pkt)
		}
		t.stats.Writes++
		h.complete(j, t)
	}
}

// Tenants returns the tenant count.
func (h *TenantHub) Tenants() int { return len(h.tenants) }

// Stats returns a snapshot of every tenant's counters, in tenant order.
// The returned slice and its elements are copies — mutating them cannot
// touch hub state.
func (h *TenantHub) Stats() []TenantStats {
	out := make([]TenantStats, len(h.tenants))
	for i, t := range h.tenants {
		out[i] = t.stats
	}
	return out
}

// ReadLatency returns a copy of tenant i's accept→complete read-latency
// histogram (the zero histogram for an index outside the tenants).
func (h *TenantHub) ReadLatency(i int) obs.Hist { return h.at(i).readLat }

// WriteLatency returns a copy of tenant i's accept→complete write-latency
// histogram (the zero histogram for an index outside the tenants).
func (h *TenantHub) WriteLatency(i int) obs.Hist { return h.at(i).writeLat }

// at returns tenant i, or an idle zero tenant for an index outside the
// tenants.
func (h *TenantHub) at(i int) *Tenant {
	if i < 0 || i >= len(h.tenants) {
		return &Tenant{}
	}
	return h.tenants[i]
}

// Client returns a client for tenant i's port. Addresses are
// window-relative.
func (h *TenantHub) Client(i int) *Client {
	return &Client{port: &h.tenants[i].Port, PktBytes: 256 * sim.KiB}
}
