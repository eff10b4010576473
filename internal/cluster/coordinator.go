package cluster

import (
	"fmt"

	"snacc/internal/ethernet"
	"snacc/internal/fault"
	"snacc/internal/pcie"
	"snacc/internal/sim"
)

// Node health states — the cluster-level echo of the Streamer's circuit
// breaker: a failure marks a node suspect (reads stop preferring it), and
// DeadAfter consecutive failures declare it dead (it leaves every replica
// set, repair re-homes its chunks, and a bounded prober watches for it to
// come back).
const (
	stateAlive = iota
	stateSuspect
	stateDead
)

type nodeHealth struct {
	state int
	fails int
}

// chunkMeta is the coordinator's bookkeeping for one placed chunk. The
// lock serializes every operation touching the chunk — foreground writes
// (held until all R replica acks resolve, not just the quorum), reads, and
// repair copies — which is what makes quorum early-acks, failover reads,
// and background repair mutually consistent without version counters.
type chunkMeta struct {
	// set lists the nodes holding a valid, complete copy of the chunk.
	// It is sticky: the ring seeds the initial placement and supplies
	// replacement targets, but membership changes only through failure
	// pruning and whole-chunk repair copies (a partial write to a node
	// holding none of the chunk's earlier writes would not be a valid
	// copy).
	set     []int
	written bool
	locked  bool
	waiters sim.FIFO[*sim.Proc]
	// under mirrors this chunk's contribution to the degraded-window
	// accounting.
	under bool
}

// coordinator owns the cluster state on the coordinator side: the request router,
// chunk table, health ladder, and repair worker.
type coordinator struct {
	cl     *Cluster
	cfg    *Config
	k      *sim.Kernel
	mac    *ethernet.MAC
	ring   *Ring
	nextID uint64
	// waiters routes response IDs to requester channels; entries are
	// removed by whichever of response/watchdog fires first.
	waiters map[uint64]*sim.Chan[response]
	// reqTimers holds one RequestTimeout watchdog per capsule in flight;
	// one whose response arrived first is dropped unrun.
	reqTimers *sim.Timers[reqTimer]
	// respFree recycles request's one-shot response channels.
	respFree []*sim.Chan[response]
	// linkRx holds the from-node link injectors, one per node.
	linkRx []*fault.LinkInjector
	health []nodeHealth
	chunks map[int64]*chunkMeta
	order  []int64 // chunk keys in placement order (deterministic scans)

	repairKick *sim.Chan[struct{}]

	// Stats.
	nodeDeaths    int64
	rejoins       int64
	probes        int64
	failovers     int64
	reReplicated  int64
	timeouts      int64
	lateReplies   int64
	bytesWritten  int64
	bytesRead     int64
	underN        int64
	degradedSince sim.Time
	degradedNs    sim.Time
}

func newCoordinator(cl *Cluster, mac *ethernet.MAC) *coordinator {
	co := &coordinator{
		cl:         cl,
		cfg:        &cl.cfg,
		k:          cl.k,
		mac:        mac,
		ring:       NewRing(cl.cfg.Nodes),
		waiters:    make(map[uint64]*sim.Chan[response]),
		health:     make([]nodeHealth, cl.cfg.Nodes),
		chunks:     make(map[int64]*chunkMeta),
		repairKick: sim.NewChan[struct{}](cl.k, 1),
	}
	for i := 0; i < cl.cfg.Nodes; i++ {
		co.linkRx = append(co.linkRx, partitionLink(splitmix64(cl.cfg.Seed+uint64(i)+0x66726f), cl.cfg.Partitions, i, false))
	}
	co.reqTimers = sim.NewTimers(cl.k, cl.cfg.RequestTimeout, co.awaited, co.requestTimedOut)
	return co
}

func (co *coordinator) spawnDaemons() {
	co.k.Spawn("coord.rx", co.rxLoop)
	co.k.Spawn("coord.repair", co.repairLoop)
}

// rxLoop routes node responses to their waiting requesters, applying the
// from-node link injectors. Delayed frames are re-scheduled rather than
// held, so one degraded node cannot head-of-line-block the others'
// responses.
func (co *coordinator) rxLoop(p *sim.Proc) {
	p.SetDaemon(true)
	for {
		f := co.mac.Recv(p)
		r, ok := f.Meta.(*response)
		if !ok {
			continue
		}
		rep := co.cl.responses.take(r)
		switch fate := co.linkRx[rep.Node].FrameFate(p.Now()); {
		case fate.Drop:
			continue
		case fate.Delay > 0:
			co.k.After(fate.Delay, func() { co.route(rep) })
		default:
			co.route(rep)
		}
	}
}

func (co *coordinator) route(rep response) {
	ch, ok := co.waiters[rep.ID]
	if !ok {
		// The watchdog already resolved this request; the node's answer
		// (possibly a completed write) is accounted but discarded — the
		// chunk lock it raced is still held, so set bookkeeping stays
		// consistent.
		co.lateReplies++
		return
	}
	delete(co.waiters, rep.ID)
	ch.TryPut(rep)
}

// sendReq frames one capsule toward a node and arms its watchdog; the
// response (or a synthesized timeout) lands on respCh exactly once.
func (co *coordinator) sendReq(p *sim.Proc, nd int, c capsule, respCh *sim.Chan[response]) {
	id := co.nextID
	co.nextID++
	c.ID = id
	c.Node = nd
	co.waiters[id] = respCh
	wire := int64(capsuleBytes)
	if c.Op == opWrite {
		wire += c.Len
	}
	co.mac.Send(p, ethernet.Frame{Bytes: wire, Meta: co.cl.capsules.box(c), DstPort: nd + 1})
	co.reqTimers.Arm(reqTimer{id: id, node: nd})
}

// reqTimer is one capsule's RequestTimeout watchdog.
type reqTimer struct {
	id   uint64
	node int
}

// awaited reports whether t's request still waits for its response; ids
// are never reused, so once answered it stays answered.
func (co *coordinator) awaited(t reqTimer) bool {
	_, ok := co.waiters[t.id]
	return ok
}

// requestTimedOut resolves an unanswered request with a synthesized
// timeout response.
func (co *coordinator) requestTimedOut(t reqTimer) {
	ch := co.waiters[t.id]
	delete(co.waiters, t.id)
	co.timeouts++
	ch.TryPut(response{ID: t.id, Node: t.node, Timeout: true, Err: "request timeout"})
}

// request is the blocking single-capsule exchange. Its channel carries
// exactly one response (route and the watchdog each deliver only while the
// request is in waiters, and the first removes it), so once that response
// is taken the channel is empty and unreferenced, and is recycled.
func (co *coordinator) request(p *sim.Proc, nd int, c capsule) response {
	var ch *sim.Chan[response]
	if n := len(co.respFree); n > 0 {
		ch = co.respFree[n-1]
		co.respFree = co.respFree[:n-1]
	} else {
		ch = sim.NewChan[response](co.k, 1)
	}
	co.sendReq(p, nd, c, ch)
	rep := ch.Get(p)
	co.respFree = append(co.respFree, ch)
	return rep
}

// --- health ladder ---

func (co *coordinator) alive(nd int) bool { return co.health[nd].state != stateDead }

func (co *coordinator) aliveCount() int {
	n := 0
	for i := range co.health {
		if co.health[i].state != stateDead {
			n++
		}
	}
	return n
}

func (co *coordinator) noteSuccess(nd int) {
	h := &co.health[nd]
	if h.state == stateDead {
		// Rejoin goes through the prober, not through a stray late
		// success.
		return
	}
	h.state = stateAlive
	h.fails = 0
}

func (co *coordinator) noteFailure(nd int) {
	h := &co.health[nd]
	if h.state == stateDead {
		return
	}
	h.fails++
	if h.fails >= co.cfg.DeadAfter {
		co.declareDead(nd)
		return
	}
	h.state = stateSuspect
}

func (co *coordinator) declareDead(nd int) {
	co.health[nd].state = stateDead
	co.nodeDeaths++
	// The dead node leaves every replica set; repair re-homes what it
	// held while foreground I/O keeps running on the survivors.
	for _, key := range co.order {
		co.chunks[key].set = removeMember(co.chunks[key].set, nd)
	}
	co.recomputeUnder()
	co.kickRepair()
	co.spawnProber(nd)
}

func (co *coordinator) rejoin(nd int) {
	h := &co.health[nd]
	h.state = stateAlive
	h.fails = 0
	co.rejoins++
	// The rejoined node holds no valid chunks (its sets were pruned at
	// death and writes moved on); repair resyncs it as a target.
	co.recomputeUnder()
	co.kickRepair()
}

// spawnProber watches a dead node for recovery: one liveness probe per
// interval, up to the limit. A node whose controller is terminally gone
// answers every probe with "dead", so the prober gives up and the kernel
// drains; a healed partition or reset-recovered controller answers OK and
// rejoins.
func (co *coordinator) spawnProber(nd int) {
	co.k.Spawn(fmt.Sprintf("coord.probe%d", nd), func(p *sim.Proc) {
		for i := 0; i < co.cfg.ProbeLimit; i++ {
			p.Sleep(co.cfg.ProbeInterval)
			co.probes++
			rep := co.request(p, nd, capsule{Op: opProbe})
			if rep.OK && !rep.Timeout {
				co.rejoin(nd)
				return
			}
		}
	})
}

// --- chunk table ---

func (co *coordinator) chunk(key int64) *chunkMeta {
	if m, ok := co.chunks[key]; ok {
		return m
	}
	m := &chunkMeta{}
	co.chunks[key] = m
	co.order = append(co.order, key)
	return m
}

func (co *coordinator) lockChunk(p *sim.Proc, m *chunkMeta) {
	for m.locked {
		m.waiters.Push(p)
		p.Park()
	}
	m.locked = true
}

func (co *coordinator) unlockChunk(m *chunkMeta) {
	m.locked = false
	if m.waiters.Len() > 0 {
		m.waiters.Pop().Wake()
	}
}

// liveSet returns the chunk's members that are not dead (pruning makes
// this usually the whole set; a member can fail between prunes).
func (co *coordinator) liveSet(m *chunkMeta) []int {
	var out []int
	for _, nd := range m.set {
		if co.alive(nd) {
			out = append(out, nd)
		}
	}
	return out
}

// liveCount counts the chunk's members that are not dead, without
// building liveSet's slice.
func (co *coordinator) liveCount(m *chunkMeta) int {
	n := 0
	for _, nd := range m.set {
		if co.alive(nd) {
			n++
		}
	}
	return n
}

// wantReplicas is the replication the cluster can currently sustain.
func (co *coordinator) wantReplicas() int {
	want := co.cfg.Replication
	if a := co.aliveCount(); want > a {
		want = a
	}
	return want
}

func (co *coordinator) setUnder(m *chunkMeta, under bool) {
	if m.under == under {
		return
	}
	m.under = under
	if under {
		co.underN++
		if co.underN == 1 {
			co.degradedSince = co.k.Now()
		}
		return
	}
	co.underN--
	if co.underN == 0 {
		co.degradedNs += co.k.Now() - co.degradedSince
	}
}

func (co *coordinator) updateUnder(m *chunkMeta) {
	co.setUnder(m, m.written && co.liveCount(m) < co.wantReplicas())
}

func (co *coordinator) recomputeUnder() {
	for _, key := range co.order {
		co.updateUnder(co.chunks[key])
	}
}

func (co *coordinator) kickRepair() { co.repairKick.TryPut(struct{}{}) }

func removeMember(set []int, nd int) []int {
	out := set[:0]
	for _, m := range set {
		if m != nd {
			out = append(out, m)
		}
	}
	return out
}

func contains(set []int, nd int) bool {
	for _, m := range set {
		if m == nd {
			return true
		}
	}
	return false
}

// --- write path ---

func (co *coordinator) write(p *sim.Proc, addr uint64, n int64, data []byte) error {
	var firstErr error
	chunkB := uint64(co.cfg.ChunkBytes)
	var off int64
	for off < n {
		pos := addr + uint64(off)
		key := int64(pos / chunkB)
		m := co.cfg.ChunkBytes - int64(pos%chunkB)
		if m > n-off {
			m = n - off
		}
		var d []byte
		if data != nil {
			d = data[off : off+int64(m)]
		}
		if err := co.writePiece(p, key, pos, m, d); err != nil && firstErr == nil {
			firstErr = err
		}
		off += m
	}
	if firstErr == nil {
		co.bytesWritten += n
	}
	return firstErr
}

// writeState accumulates one piece's replica outcomes across the
// foreground quorum wait and the background finisher.
type writeState struct {
	co        *coordinator
	m         *chunkMeta
	acked     int
	remaining int
	failed    []int
}

func (st *writeState) absorb(rep response) {
	st.remaining--
	if rep.OK && !rep.Timeout {
		st.acked++
		st.co.noteSuccess(rep.Node)
		return
	}
	st.failed = append(st.failed, rep.Node)
	st.co.noteFailure(rep.Node)
}

// finalize applies the piece's outcomes to the chunk and releases it: a
// failed or timed-out replica no longer holds a valid copy (even a timeout
// — the write may not have landed), so it leaves the set and repair
// restores the count.
func (st *writeState) finalize() {
	co := st.co
	for _, nd := range st.failed {
		st.m.set = removeMember(st.m.set, nd)
	}
	if !st.m.written {
		if st.acked > 0 {
			st.m.written = true
		} else {
			st.m.set = nil
		}
	}
	co.updateUnder(st.m)
	if len(st.failed) > 0 {
		co.kickRepair()
	}
	co.unlockChunk(st.m)
}

func (co *coordinator) writePiece(p *sim.Proc, key int64, addr uint64, n int64, data []byte) error {
	m := co.chunk(key)
	co.lockChunk(p, m)
	var targets []int
	if !m.written {
		targets = co.ring.Lookup(uint64(key), co.cfg.Replication, co.alive)
		m.set = append([]int(nil), targets...)
	} else {
		targets = co.liveSet(m)
	}
	if len(targets) == 0 {
		co.unlockChunk(m)
		return fmt.Errorf("cluster: chunk %d unavailable: no live replica", key)
	}
	// The piece's one copy: the caller's bytes go into pages, and every
	// replica's capsule takes references of its own to them, so the
	// replicas share the pages copy on write.
	var payload pcie.Payload
	if data != nil {
		payload = pcie.NewPages(0, int(n))
		payload.WriteAt(data, 0)
	}
	respCh := sim.NewChan[response](co.k, len(targets))
	for _, nd := range targets {
		c := capsule{Op: opWrite, Addr: addr, Len: n}
		if data != nil {
			c.Data = pcie.NewPages(0, int(n))
			c.Data.Put(payload, 0)
		}
		co.sendReq(p, nd, c, respCh)
	}
	payload.Release()
	needQ := co.cfg.Quorum
	if needQ > len(targets) {
		// Degraded mode: fewer live replicas than the quorum — accept
		// the survivors' acks rather than failing foreground writes
		// while repair catches up.
		needQ = len(targets)
	}
	st := &writeState{co: co, m: m, remaining: len(targets)}
	for st.remaining > 0 {
		st.absorb(respCh.Get(p))
		if st.acked >= needQ && st.remaining > 0 {
			// Quorum reached: acknowledge the caller now; a finisher
			// resolves the stragglers and releases the chunk.
			co.k.Spawn("coord.write.fin", func(fp *sim.Proc) {
				for st.remaining > 0 {
					st.absorb(respCh.Get(fp))
				}
				st.finalize()
			})
			return nil
		}
	}
	var err error
	if st.acked < needQ {
		err = fmt.Errorf("cluster: chunk %d write acked by %d/%d replicas (quorum %d)",
			key, st.acked, len(targets), needQ)
	}
	st.finalize()
	return err
}

// --- read path ---

// read gathers each piece's pages into one view of the request, by
// reference where they line up, and copies it out once at the end; a piece
// no replica served stays zeros.
func (co *coordinator) read(p *sim.Proc, addr uint64, n int64) ([]byte, error) {
	var view pcie.Payload
	if co.cfg.Functional {
		view = pcie.NewPages(0, int(n))
	}
	var firstErr error
	chunkB := uint64(co.cfg.ChunkBytes)
	var off int64
	for off < n {
		pos := addr + uint64(off)
		key := int64(pos / chunkB)
		m := co.cfg.ChunkBytes - int64(pos%chunkB)
		if m > n-off {
			m = n - off
		}
		if err := co.readPiece(p, key, pos, m, view, off); err != nil && firstErr == nil {
			firstErr = err
		}
		off += m
	}
	if firstErr == nil {
		co.bytesRead += n
	}
	out := view.Bytes()
	view.Release()
	return out, firstErr
}

func (co *coordinator) readPiece(p *sim.Proc, key int64, addr uint64, n int64, view pcie.Payload, off int64) error {
	m := co.chunk(key)
	co.lockChunk(p, m)
	// The candidates live in an array on this frame: the common replica
	// counts never reach the heap.
	var buf [8]int
	candidates := buf[:0]
	if m.written {
		// Prefer healthy members (the set's head is the primary), fall
		// back to suspects; dead members were pruned.
		for _, nd := range m.set {
			if co.health[nd].state == stateAlive {
				candidates = append(candidates, nd)
			}
		}
		for _, nd := range m.set {
			if co.health[nd].state == stateSuspect {
				candidates = append(candidates, nd)
			}
		}
	} else {
		// Never-written chunk: any live ring replica serves the zeros.
		candidates = co.ring.Lookup(uint64(key), co.cfg.Replication, co.alive)
	}
	var firstErr error
	for _, nd := range candidates {
		rep := co.request(p, nd, capsule{Op: opRead, Addr: addr, Len: n})
		if rep.OK && !rep.Timeout {
			co.noteSuccess(nd)
			if !rep.Data.IsNil() {
				view.Put(rep.Data, int(off))
				rep.Data.Release()
			}
			co.unlockChunk(m)
			return nil
		}
		co.noteFailure(nd)
		co.failovers++
		if firstErr == nil {
			firstErr = fmt.Errorf("cluster: chunk %d read from node %d: %s", key, nd, rep.Err)
		}
	}
	co.unlockChunk(m)
	if firstErr == nil {
		firstErr = fmt.Errorf("cluster: chunk %d unavailable: no live replica", key)
	}
	return firstErr
}

// --- background re-replication ---

// repairLoop is the repair worker: woken by kicks (death, rejoin, write
// failures), it scans the chunk table in placement order and copies whole
// chunks from a surviving holder to a ring-preferred new target until
// every chunk is back at the sustainable replica count. Foreground I/O
// interleaves freely; the per-chunk lock serializes only same-chunk work.
func (co *coordinator) repairLoop(p *sim.Proc) {
	p.SetDaemon(true)
	for {
		co.repairKick.Get(p)
		for {
			key, m := co.nextRepair()
			if m == nil {
				break
			}
			co.repairChunk(p, key, m)
		}
	}
}

// nextRepair finds the first chunk short of the sustainable replica count
// that has both a live source and a live target candidate.
func (co *coordinator) nextRepair() (int64, *chunkMeta) {
	want := co.wantReplicas()
	for _, key := range co.order {
		m := co.chunks[key]
		if !m.written {
			continue
		}
		if live := co.liveCount(m); live == 0 || live >= want {
			continue
		}
		if co.repairTarget(key, m) < 0 {
			continue
		}
		return key, m
	}
	return 0, nil
}

// repairTarget picks the ring-preferred live node not already holding the
// chunk, or -1.
func (co *coordinator) repairTarget(key int64, m *chunkMeta) int {
	for _, nd := range co.ring.Lookup(uint64(key), co.cfg.Nodes, co.alive) {
		if !contains(m.set, nd) {
			return nd
		}
	}
	return -1
}

// repairChunk copies one whole chunk to one new target. Whole-chunk copies
// are what keep the sticky replica sets valid: the target ends up with
// every byte the chunk holds (unwritten regions read as zeros on the
// source and write as zeros on the target).
func (co *coordinator) repairChunk(p *sim.Proc, key int64, m *chunkMeta) {
	co.lockChunk(p, m)
	// Re-validate under the lock — foreground failures or a rejoin may
	// have changed the picture while we waited.
	live := co.liveSet(m)
	target := co.repairTarget(key, m)
	if !m.written || len(live) == 0 || len(live) >= co.wantReplicas() || target < 0 {
		co.unlockChunk(m)
		return
	}
	src := live[0]
	base := uint64(key) * uint64(co.cfg.ChunkBytes)
	rd := co.request(p, src, capsule{Op: opRead, Addr: base, Len: co.cfg.ChunkBytes})
	if !rd.OK || rd.Timeout {
		co.noteFailure(src)
		co.unlockChunk(m)
		return
	}
	co.noteSuccess(src)
	// The source's pages go straight into the target's capsule, whose
	// node releases them.
	wr := co.request(p, target, capsule{Op: opWrite, Addr: base, Len: co.cfg.ChunkBytes, Data: rd.Data})
	if !wr.OK || wr.Timeout {
		co.noteFailure(target)
		co.unlockChunk(m)
		return
	}
	co.noteSuccess(target)
	m.set = append(m.set, target)
	co.reReplicated += co.cfg.ChunkBytes
	co.updateUnder(m)
	co.unlockChunk(m)
}

// stats snapshots the coordinator counters.
func (co *coordinator) stats() Stats {
	degraded := co.degradedNs
	if co.underN > 0 {
		degraded += co.k.Now() - co.degradedSince
	}
	s := Stats{
		NodeDeaths:            co.nodeDeaths,
		Rejoins:               co.rejoins,
		Probes:                co.probes,
		Failovers:             co.failovers,
		ReReplicatedBytes:     co.reReplicated,
		DegradedWindowNs:      int64(degraded),
		UnderReplicatedChunks: co.underN,
		Chunks:                int64(len(co.order)),
		RequestTimeouts:       co.timeouts,
		LateReplies:           co.lateReplies,
		BytesWritten:          co.bytesWritten,
		BytesRead:             co.bytesRead,
	}
	for _, li := range co.linkRx {
		s.LinkFramesDropped += li.Dropped()
		s.LinkFramesDelayed += li.Delayed()
	}
	return s
}
