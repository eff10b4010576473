package sim

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// maxTime is the +infinity sentinel for horizon arithmetic.
const maxTime = Time(1<<63 - 1)

// This file implements conservative-parallel discrete-event simulation over
// multiple Kernels ("domains"). The partition follows the modeled hardware:
// components that exchange events only across links with a known minimum
// latency (an Ethernet wire, a PCIe hop) can live in separate domains, and
// that latency becomes the edge's *lookahead* — the guarantee that a domain
// executing at time t cannot receive a new event before t+lookahead.
//
// Synchronization is barrier-based with *per-domain safe times*. Every
// round the shard computes, for each domain u, a lower bound est(u) on the
// time of u's next cross-domain send (null-message style earliest output
// time):
//
//	est(u) = min( queueEst(u),
//	              min over inbound edges (w,u) of
//	                  est(w) + lookahead(w,u) + turnaround(u) )
//
// where turnaround(u) is the domain's declared minimum arrival-to-send
// delay (0 unless the model promises more — see SetTurnaround) and
// queueEst(u) bounds the next send u's pending queue could produce: its
// earliest pending event head(u) in general (+inf when the queue is empty),
// but head(u)+turnaround(u) when everything pending up to the head is a
// barrier-delivered arrival — a locally scheduled event may send the moment
// it runs, while an arrival's transitive sends are covered by the
// turnaround contract (Kernel.earliestSend tracks which case holds in
// O(1)). The fixpoint is a Bellman-Ford relaxation over the edge list;
// positive lookaheads make it converge in at most |domains| passes.
// A domain's execution window is then
//
//	window(d) = min over inbound edges (w,d) of est(w) + lookahead(w,d)
//
// so a domain fed only through slow links (an Ethernet wire) takes windows
// as wide as those links allow, and a domain whose upstream senders are all
// drained runs clear to its own queue tail — instead of every domain
// marching in lockstep by the single global minimum lookahead. A domain
// whose queue head is at or beyond its window is elided from the round
// entirely: no runWindow call, no slot in the worker hand-off.
//
// Each round, every non-elided domain executes events strictly below its
// window in parallel on a persistent worker pool (spawned once per Run,
// released on a reusable channel barrier each round — not re-created per
// round). Cross-domain events produced during the round are buffered per
// source domain and merged at the barrier in (timestamp, source-domain id,
// source sequence) order, so the destination kernel assigns its
// tie-breaking sequence numbers identically at any worker count — results
// are byte-identical whether the round ran on one worker or sixteen. The
// windows themselves are pure functions of barrier-time queue state, so the
// round structure — and therefore every delivery point — is also identical
// at any worker count.

// Domain is one sub-kernel of a Shard: a private Kernel plus the outbox for
// cross-domain events it produces. All model state built on the domain's
// Kernel is owned by the domain and must never be touched from another
// domain except through Edge deliveries.
type Domain struct {
	s    *Shard
	id   int
	name string
	k    *Kernel

	// out buffers cross-domain events produced during the current round;
	// only this domain's worker appends, so no locking. The backing array
	// is recycled across rounds.
	out []xevent
	// xseq orders this domain's cross-domain sends for deterministic
	// barrier merging.
	xseq uint64
	// turnaround is the declared minimum delay between an inbound
	// cross-domain arrival and any cross-domain send it transitively
	// causes (see SetTurnaround). Zero promises nothing.
	turnaround Time
	// window is the current round's execution bound, written at the
	// barrier and read by whichever pool worker runs the domain.
	window Time
}

// SetTurnaround declares the domain's minimum arrival-to-send delay: a
// promise that any cross-domain send transitively caused by an inbound
// cross-domain arrival at time t is delivered at or after t+min+lookahead —
// equivalently, issued no earlier than a local event t+min could issue it.
// It models the node's service time (NVMe command processing, flash media
// latency, switch store-and-forward) the same way an edge's lookahead
// models the link, and it widens every downstream window by stretching the
// earliest-output-time bound whenever the domain's pending work is all
// inbound arrivals. Sends issued directly from an arrival event are checked
// against the promise at the Edge.At call; sends issued from later local
// events are the model's to keep honest — like a lookahead violation, a
// breach that would actually reorder events is caught by the destination
// kernel's scheduling-in-the-past panic, not silently absorbed. Zero (the
// default) promises nothing and must be used when in doubt.
func (d *Domain) SetTurnaround(min Time) {
	if min < 0 {
		panic(fmt.Sprintf("sim: negative turnaround %v for domain %s", min, d.name))
	}
	d.turnaround = min
}

// Turnaround returns the declared minimum arrival-to-send delay.
func (d *Domain) Turnaround() Time { return d.turnaround }

// Kernel returns the domain's private simulation kernel.
func (d *Domain) Kernel() *Kernel { return d.k }

// Name returns the name given at AddDomain.
func (d *Domain) Name() string { return d.name }

// ID returns the domain's index in its shard, the tie-breaking key for
// same-timestamp cross-domain deliveries.
func (d *Domain) ID() int { return d.id }

// xevent is one cross-domain event in flight: scheduled by a source domain,
// delivered into the destination kernel at the next barrier.
type xevent struct {
	at  Time
	src int
	seq uint64
	dst int
	fn  func()
}

// Edge is a declared communication channel from one domain to another with
// a positive lookahead: every event sent over the edge must be scheduled at
// least lookahead after the sender's current time. The lookahead is the
// modeled link latency (Ethernet wire delay, PCIe hop latency), so model
// code that already defers remote effects by the link latency satisfies the
// constraint naturally.
type Edge struct {
	src, dst  *Domain
	lookahead Time
	muted     bool
}

// Lookahead returns the edge's declared minimum latency.
func (e *Edge) Lookahead() Time { return e.lookahead }

// Mute promises that this workload never sends on the edge: At/After panic,
// and the conservative scheduler drops the edge from the safe-time graph,
// so the destination's window is no longer throttled by a channel that is
// declared in the topology but idle in the scenario (the chain rig's
// pause-frame path, a cluster link with no traffic this run). The promise
// is enforced, not trusted — a muted send fails loudly at the call site.
func (e *Edge) Mute() { e.muted = true }

// Muted reports whether Mute was called.
func (e *Edge) Muted() bool { return e.muted }

// From returns the source domain.
func (e *Edge) From() *Domain { return e.src }

// To returns the destination domain.
func (e *Edge) To() *Domain { return e.dst }

// At schedules fn to run in the destination domain at absolute time t,
// which must honor the edge's lookahead relative to the source domain's
// current time. Must be called from the source domain (during one of its
// events or processes, or before the shard runs).
func (e *Edge) At(t Time, fn func()) {
	src := e.src
	if e.muted {
		panic(fmt.Sprintf("sim: cross-domain event %s->%s at %v on a muted edge", src.name, e.dst.name, t))
	}
	if t < src.k.now+e.lookahead {
		panic(fmt.Sprintf("sim: cross-domain event %s->%s at %v violates lookahead %v (source now %v)",
			src.name, e.dst.name, t, e.lookahead, src.k.now))
	}
	if src.k.inSilent {
		panic(fmt.Sprintf("sim: silent event in domain %s performs a cross-domain send %s->%s at %v (AtSilent promises no sends)",
			src.name, src.name, e.dst.name, t))
	}
	if src.k.inArrival && t < src.k.now+src.turnaround+e.lookahead {
		panic(fmt.Sprintf("sim: domain %s declares turnaround %v but a cross-domain arrival at %v sends %s->%s for delivery at %v (need >= arrival+turnaround+lookahead)",
			src.name, src.turnaround, src.k.now, src.name, e.dst.name, t))
	}
	src.xseq++
	src.out = append(src.out, xevent{at: t, src: src.id, seq: src.xseq, dst: e.dst.id, fn: fn})
}

// After schedules fn in the destination domain d after the source domain's
// current time; d must be at least the edge's lookahead.
func (e *Edge) After(d Time, fn func()) { e.At(e.src.k.now+d, fn) }

// Shard is a conservative-parallel scheduler over communicating domains.
// Create one with NewShard, partition the model with AddDomain, declare
// every cross-domain link with Connect, then Run. With a single domain and
// no edges, Run degenerates to the domain kernel's ordinary serial drain.
type Shard struct {
	workers int
	domains []*Domain
	edges   []*Edge

	// inbox is the recycled barrier merge buffer; sorter wraps it for a
	// zero-allocation sort.Sort at the barrier (sort.Slice would allocate
	// its reflect-based swapper on every round).
	inbox  []xevent
	sorter xeventSorter

	// est is the recycled earliest-send-time scratch for the per-round
	// safe-time fixpoint; active is the recycled list of domains that
	// actually execute this round (elided domains never enter it).
	est    []Time
	active []*Domain

	// Persistent round pool: poolHelpers goroutines spawned lazily on the
	// first multi-domain round of a Run, parked on poolStart between
	// rounds, and released by closing the channel when Run returns. next
	// is the atomic work-steal cursor into active.
	poolStart   chan struct{}
	poolHelpers int
	poolDone    sync.WaitGroup
	next        int64

	// Stats (see SyncStats).
	rounds           uint64
	crossDelivered   uint64
	elided           uint64
	unboundedWindows uint64
	widest           Time
	narrowest        Time // 0 until the first finite window is observed
}

// NewShard returns an empty shard. workers <= 0 selects GOMAXPROCS; the
// per-round concurrency is additionally capped by the domain count.
// workers == 1 executes every round inline on the caller's goroutine in
// domain order — the exact serial code path, with no pool involved.
func NewShard(workers int) *Shard {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Shard{workers: workers}
}

// Workers returns the configured worker budget.
func (s *Shard) Workers() int { return s.workers }

// AddDomain creates a new domain with its own kernel.
func (s *Shard) AddDomain(name string) *Domain {
	d := &Domain{s: s, id: len(s.domains), name: name, k: NewKernel()}
	s.domains = append(s.domains, d)
	return d
}

// Domains returns the shard's domains in id order.
func (s *Shard) Domains() []*Domain { return s.domains }

// Connect declares a directed edge from src to dst with the given
// lookahead. A non-positive lookahead is rejected: conservative
// synchronization advances the global window by the minimum lookahead each
// round, so a zero or negative value could never make progress — the error
// surfaces at build time instead of as a runtime deadlock.
func (s *Shard) Connect(src, dst *Domain, lookahead Time) (*Edge, error) {
	if src == nil || dst == nil {
		return nil, fmt.Errorf("sim: Connect with nil domain")
	}
	if src.s != s || dst.s != s {
		return nil, fmt.Errorf("sim: Connect %s->%s across different shards", src.name, dst.name)
	}
	if src == dst {
		return nil, fmt.Errorf("sim: Connect %s->%s: a domain cannot have an edge to itself (use Kernel.At)", src.name, dst.name)
	}
	if lookahead <= 0 {
		return nil, fmt.Errorf("sim: Connect %s->%s: lookahead %v must be positive (conservative sync cannot advance past a zero-lookahead edge)",
			src.name, dst.name, lookahead)
	}
	e := &Edge{src: src, dst: dst, lookahead: lookahead}
	s.edges = append(s.edges, e)
	return e, nil
}

// MustConnect is Connect, panicking on error (rig builders with static
// topologies).
func (s *Shard) MustConnect(src, dst *Domain, lookahead Time) *Edge {
	e, err := s.Connect(src, dst, lookahead)
	if err != nil {
		panic(err)
	}
	return e
}

// EventsExecuted sums event executions across all domains — the same work
// metric as Kernel.EventsExecuted.
func (s *Shard) EventsExecuted() uint64 {
	var n uint64
	for _, d := range s.domains {
		n += d.k.executed
	}
	return n
}

// Rounds returns the number of synchronization windows executed.
func (s *Shard) Rounds() uint64 { return s.rounds }

// CrossEvents returns the number of cross-domain events delivered.
func (s *Shard) CrossEvents() uint64 { return s.crossDelivered }

// SyncStats summarizes the conservative scheduler's overhead: how many
// barrier rounds the run took, how much useful work each round carried, how
// often idle domains were elided from rounds entirely, and the spread of
// per-domain window widths the safe-time computation produced. Every field
// is a pure function of barrier-time queue state, so the numbers are
// identical at any worker count.
type SyncStats struct {
	// Rounds is the number of synchronization windows executed; Events and
	// CrossEvents are the work they carried. EventsPerRound is their ratio
	// — the sync-overhead headline (higher is better).
	Rounds         uint64
	Events         uint64
	CrossEvents    uint64
	EventsPerRound float64
	// ElidedDomainRounds counts domain×round slots skipped because the
	// domain's queue head was at or beyond its window (including drained
	// domains) — rounds that cost neither a runWindow call nor a worker
	// hand-off.
	ElidedDomainRounds uint64
	// UnboundedWindows counts executed domain-rounds whose safe time was
	// unbounded (no inbound edge could ever constrain them), letting the
	// domain run clear to its queue tail.
	UnboundedWindows uint64
	// WidestWindow and NarrowestWindow are the extreme finite window
	// widths (window minus the domain's queue head) over all executed
	// domain-rounds; both are 0 when no finite window was observed.
	WidestWindow    Time
	NarrowestWindow Time
}

// SyncStats returns the synchronization-overhead counters accumulated so
// far (across Run calls, like Rounds and EventsExecuted).
func (s *Shard) SyncStats() SyncStats {
	st := SyncStats{
		Rounds:             s.rounds,
		Events:             s.EventsExecuted(),
		CrossEvents:        s.crossDelivered,
		ElidedDomainRounds: s.elided,
		UnboundedWindows:   s.unboundedWindows,
		WidestWindow:       s.widest,
		NarrowestWindow:    s.narrowest,
	}
	if st.Rounds > 0 {
		st.EventsPerRound = float64(st.Events) / float64(st.Rounds)
	}
	return st
}

// Now returns the maximum current time across domains — the shard-level
// analogue of Kernel.Now after a Run.
func (s *Shard) Now() Time {
	var t Time
	for _, d := range s.domains {
		if d.k.now > t {
			t = d.k.now
		}
	}
	return t
}

// Close stops every live process of every domain and drops their pending
// events and undelivered cross-domain sends (see Kernel.Close). Call it
// after Run has returned; the shard must not be run again afterwards.
func (s *Shard) Close() {
	for _, d := range s.domains {
		d.k.Close()
		d.out = nil
	}
	s.inbox = nil
}

// Stop makes Run return after the current synchronization round.
func (s *Shard) Stop() {
	for _, d := range s.domains {
		d.k.Stop()
	}
}

// deliver drains every domain's outbox into the destination kernels in
// (timestamp, source domain, source sequence) order. Scheduling order
// determines the destination kernel's tie-breaking sequence numbers, so the
// deterministic merge keeps results independent of the worker count.
func (s *Shard) deliver() {
	buf := s.inbox[:0]
	for _, d := range s.domains {
		buf = append(buf, d.out...)
		for i := range d.out {
			d.out[i] = xevent{} // drop fn references for the collector
		}
		d.out = d.out[:0]
	}
	if len(buf) > 1 {
		s.sorter.ev = buf
		sort.Sort(&s.sorter)
		s.sorter.ev = nil
	}
	for i := range buf {
		e := &buf[i]
		s.domains[e.dst].k.atArrival(e.at, e.fn)
		buf[i] = xevent{}
	}
	s.crossDelivered += uint64(len(buf))
	s.inbox = buf[:0]
}

// xeventSorter orders the barrier merge buffer by (timestamp, source
// domain id, source sequence) — the deterministic cross-domain delivery
// order. It exists (instead of sort.Slice) so the barrier stays
// allocation-free.
type xeventSorter struct{ ev []xevent }

func (x *xeventSorter) Len() int      { return len(x.ev) }
func (x *xeventSorter) Swap(i, j int) { x.ev[i], x.ev[j] = x.ev[j], x.ev[i] }
func (x *xeventSorter) Less(i, j int) bool {
	a, b := &x.ev[i], &x.ev[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// lbts returns the earliest pending event timestamp across all domains, or
// maxTime when every queue is empty. Outboxes must have been delivered.
func (s *Shard) lbts() Time {
	t := maxTime
	for _, d := range s.domains {
		if q := &d.k.queue; q.len() > 0 && q.ev[0].at < t {
			t = q.ev[0].at
		}
	}
	return t
}

// Run executes the conservative synchronization loop until every domain
// drains, Stop is called, or the optional horizon is reached (horizon <= 0
// means none). It returns the time of the last executed event (or the
// horizon when it was hit), mirroring Kernel.Run.
//
// Like Kernel.Run, it panics when the simulation deadlocks: every queue
// empty, nothing in flight, and non-daemon processes still parked.
func (s *Shard) Run(horizon Time) Time {
	for _, d := range s.domains {
		d.k.stopped = false
	}
	defer s.releasePool()
	for {
		s.deliver()
		lbts := s.lbts()
		if lbts == maxTime {
			s.checkDeadlock()
			return s.Now()
		}
		if horizon > 0 && lbts > horizon {
			// Mirror the serial kernel: advance to the horizon and leave
			// over-horizon events pending.
			for _, d := range s.domains {
				if d.k.now < horizon {
					d.k.now = horizon
				}
			}
			return horizon
		}
		s.computeRound(horizon)
		s.runRound()
		s.rounds++
		for _, d := range s.domains {
			if d.k.stopped {
				return s.Now()
			}
		}
	}
}

// computeRound derives every domain's execution window for this round from
// barrier-time queue state (see the file header for the math) and fills
// s.active with the domains that have work below their window. Purely
// deterministic: no worker-count or timing dependence.
func (s *Shard) computeRound(horizon Time) {
	n := len(s.domains)
	if cap(s.est) < n {
		s.est = make([]Time, n)
	}
	est := s.est[:n]
	for i, d := range s.domains {
		est[i] = d.k.earliestSend(d.turnaround)
	}
	// Earliest-send-time fixpoint. Positive lookaheads mean any improving
	// path is simple, so n passes suffice; in practice it settles in one
	// or two.
	for pass := 0; pass < n; pass++ {
		changed := false
		for _, e := range s.edges {
			su := est[e.src.id]
			if su == maxTime || e.muted {
				continue
			}
			if t := su + e.lookahead + e.dst.turnaround; t < est[e.dst.id] {
				est[e.dst.id] = t
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	limit := maxTime
	if horizon > 0 {
		limit = horizon + 1
	}
	for _, d := range s.domains {
		d.window = limit
	}
	for _, e := range s.edges {
		if est[e.src.id] == maxTime || e.muted {
			continue
		}
		if t := est[e.src.id] + e.lookahead; t < e.dst.window {
			e.dst.window = t
		}
	}
	s.active = s.active[:0]
	for _, d := range s.domains {
		head := maxTime
		if q := &d.k.queue; q.len() > 0 {
			head = q.ev[0].at
		}
		if head >= d.window {
			s.elided++
			continue
		}
		if d.window == maxTime {
			s.unboundedWindows++
		} else {
			width := d.window - head
			if width > s.widest {
				s.widest = width
			}
			if s.narrowest == 0 || width < s.narrowest {
				s.narrowest = width
			}
		}
		s.active = append(s.active, d)
	}
}

// runRound executes one synchronization round: every active domain runs
// its events strictly below its own window. Domains share no mutable state
// (cross effects ride the outboxes), so they execute concurrently; with one
// effective worker the loop below is the exact serial path.
func (s *Shard) runRound() {
	n := len(s.active)
	if n == 0 {
		// Unreachable: the LBTS domain's window strictly exceeds its own
		// head (positive lookaheads), so every round makes progress. Guard
		// against an infinite Run loop if the invariant is ever broken.
		panic("sim: shard round elided every domain (safe-time bug)")
	}
	w := s.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for _, d := range s.active {
			d.k.runWindow(d.window)
		}
		return
	}
	if s.poolStart == nil {
		s.spawnPool()
	}
	atomic.StoreInt64(&s.next, 0)
	s.poolDone.Add(s.poolHelpers)
	for i := 0; i < s.poolHelpers; i++ {
		s.poolStart <- struct{}{}
	}
	s.drainActive() // the caller is the pool's first worker
	s.poolDone.Wait()
}

// spawnPool starts the persistent helper goroutines for this Run: one per
// worker beyond the caller, capped by the domain count. Helpers park on
// poolStart between rounds (each round's token send publishes that round's
// active list and windows) and exit when releasePool closes the channel.
func (s *Shard) spawnPool() {
	helpers := s.workers
	if helpers > len(s.domains) {
		helpers = len(s.domains)
	}
	helpers--
	s.poolHelpers = helpers
	s.poolStart = make(chan struct{})
	// Helpers hold the channel by value: releasePool nils the struct field
	// for the next Run while they are still draining out of the closed
	// channel, so they must never re-read it.
	start := s.poolStart
	for i := 0; i < helpers; i++ {
		go func() {
			for range start {
				s.drainActive()
				s.poolDone.Done()
			}
		}()
	}
}

// drainActive work-steals domains off the active list until it is empty.
// The steal order does not matter: domains are mutually independent within
// a round, and the barrier merge restores the deterministic global order.
func (s *Shard) drainActive() {
	for {
		i := atomic.AddInt64(&s.next, 1) - 1
		if i >= int64(len(s.active)) {
			return
		}
		d := s.active[i]
		d.k.runWindow(d.window)
	}
}

// releasePool shuts the persistent pool down at the end of a Run; parked
// helpers wake on the closed channel and exit without touching shard state.
// The next Run spawns a fresh pool on its first multi-domain round.
func (s *Shard) releasePool() {
	if s.poolStart != nil {
		close(s.poolStart)
		s.poolStart = nil
		s.poolHelpers = 0
	}
}

// checkDeadlock applies the serial kernel's deadlock rule across the whole
// shard: all queues drained and outboxes empty, yet non-daemon processes
// remain parked.
func (s *Shard) checkDeadlock() {
	stuck := 0
	detail := ""
	for _, d := range s.domains {
		k := d.k
		if k.stopped || k.parked != k.nprocs {
			return // a stop or a mid-dispatch state; not a deadlock verdict
		}
		if n := k.parked - k.parkedDaemons; n > 0 {
			stuck += n
			detail += fmt.Sprintf(" [%s: %d]", d.name, n)
		}
	}
	if stuck > 0 {
		panic(fmt.Sprintf("sim: shard deadlock at %v: %d non-daemon processes parked with no pending events%s",
			s.Now(), stuck, detail))
	}
}

// runWindow executes this kernel's events strictly before limit, without
// the serial deadlock check (the shard applies it globally once every
// domain and outbox is drained). The kernel's clock stays at the last
// executed event, exactly as in Run, so model-visible time is identical to
// a serial execution of the same event sequence.
func (k *Kernel) runWindow(limit Time) {
	for k.queue.len() > 0 && !k.stopped {
		if k.queue.ev[0].at >= limit {
			return
		}
		e := k.queue.pop()
		k.finishPop(&e)
		k.now = e.at
		k.executed++
		k.inArrival, k.inSilent = e.arrival, e.silent
		e.fn()
		k.inArrival, k.inSilent = false, false
	}
}

// EdgeSpec names one directed cross-domain link of a Plan.
type EdgeSpec struct {
	Src, Dst  string
	Lookahead Time
}

// Plan is a declarative domain partition: named domains plus the lookahead
// edges between them. Model packages publish plans (streamer.DomainPlan
// maps the paper's ethernet -> pcie -> nvme-per-controller chain) and rig
// builders materialize them onto a Shard.
type Plan struct {
	Domains []string
	Edges   []EdgeSpec
	// Turnarounds optionally declares per-domain minimum arrival-to-send
	// delays, keyed by domain name (Domain.SetTurnaround). Only list a
	// domain when the model genuinely never responds to an inbound
	// cross-domain event with a cross-domain send faster than the stated
	// delay; omitted domains promise nothing.
	Turnarounds map[string]Time
}

// MinLookahead returns the smallest edge lookahead — the per-round horizon
// increment the plan sustains — or 0 for a plan with no edges.
func (p Plan) MinLookahead() Time {
	min := Time(0)
	for i, e := range p.Edges {
		if i == 0 || e.Lookahead < min {
			min = e.Lookahead
		}
	}
	return min
}

// Validate checks the plan: non-empty unique domain names, edge endpoints
// that exist, and positive lookaheads.
func (p Plan) Validate() error {
	if len(p.Domains) == 0 {
		return fmt.Errorf("sim: plan has no domains")
	}
	seen := make(map[string]bool, len(p.Domains))
	for _, name := range p.Domains {
		if name == "" {
			return fmt.Errorf("sim: plan has an unnamed domain")
		}
		if seen[name] {
			return fmt.Errorf("sim: plan declares domain %q twice", name)
		}
		seen[name] = true
	}
	for _, e := range p.Edges {
		if !seen[e.Src] || !seen[e.Dst] {
			return fmt.Errorf("sim: plan edge %s->%s references an undeclared domain", e.Src, e.Dst)
		}
		if e.Lookahead <= 0 {
			return fmt.Errorf("sim: plan edge %s->%s has non-positive lookahead %v", e.Src, e.Dst, e.Lookahead)
		}
	}
	for name, turn := range p.Turnarounds {
		if !seen[name] {
			return fmt.Errorf("sim: plan turnaround for undeclared domain %q", name)
		}
		if turn < 0 {
			return fmt.Errorf("sim: plan turnaround for %s is negative (%v)", name, turn)
		}
	}
	return nil
}

// Build materializes the plan onto s, returning the domains by name and the
// edges keyed "src->dst".
func (p Plan) Build(s *Shard) (map[string]*Domain, map[string]*Edge, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	domains := make(map[string]*Domain, len(p.Domains))
	for _, name := range p.Domains {
		domains[name] = s.AddDomain(name)
		if turn := p.Turnarounds[name]; turn > 0 {
			domains[name].SetTurnaround(turn)
		}
	}
	edges := make(map[string]*Edge, len(p.Edges))
	for _, e := range p.Edges {
		edge, err := s.Connect(domains[e.Src], domains[e.Dst], e.Lookahead)
		if err != nil {
			return nil, nil, err
		}
		edges[e.Src+"->"+e.Dst] = edge
	}
	return domains, edges, nil
}
