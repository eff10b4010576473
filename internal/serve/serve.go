package serve

import (
	"fmt"

	"snacc/internal/ethernet"
	"snacc/internal/obs"
	"snacc/internal/sim"
	"snacc/internal/workload"
)

// The serving tier's fixed shape.
const (
	// dispatchDepth bounds requests decoded off the wire but not yet
	// issued to the backend. This is what closes the backpressure loop: a
	// full dispatch queue stalls the receive process, the MAC's rx FIFO
	// fills, and 802.3x pause frames throttle the client.
	dispatchDepth = 256
	// dispatchBatch is how many queued requests the dispatcher issues to
	// the backend per wakeup (the doorbell-batching idea applied to RPC
	// dispatch).
	dispatchBatch = 16
	// frameBatch caps the request/response capsules coalesced into one
	// Ethernet frame.
	frameBatch = 32
	// clientBacklog bounds capsules the open-loop client holds while the
	// link is paused; arrivals beyond it are shed oldest-first and counted
	// as drops.
	clientBacklog = 4096
	// laneWindow bounds requests in flight per lane; the dispatcher blocks
	// at the cap, which is what fills the dispatch queue when the backend
	// is slow.
	laneWindow = 64
	// retryTick is the client's poll interval while the link refuses new
	// frames.
	retryTick = 2 * sim.Microsecond
)

// withDefaults fills the zero fields of a serving workload with its
// defaults: 10 000 clients send 4000 requests of 4 KiB at 500 000/s, 70%
// of them reads, over 256 MiB with a zipfian (θ 0.9, 64 buckets) hot set,
// from seed 0x5ac5. Phases, CloseProb and Tenants have no default.
func withDefaults(s workload.OpenLoopSpec) workload.OpenLoopSpec {
	if s.Clients == 0 {
		s.Clients = 10_000
	}
	if s.RatePerSec == 0 {
		s.RatePerSec = 500e3
	}
	if s.Ops == 0 {
		s.Ops = 4000
	}
	if s.ReadFraction == 0 {
		s.ReadFraction = 0.7
	}
	if s.IOBytes == 0 {
		s.IOBytes = 4 * sim.KiB
	}
	if s.SpanBytes == 0 {
		s.SpanBytes = 256 * sim.MiB
	}
	if s.ZipfTheta == 0 {
		s.ZipfTheta = 0.9
	}
	if s.ZipfBuckets == 0 {
		s.ZipfBuckets = 64
	}
	if s.Seed == 0 {
		s.Seed = 0x5ac5
	}
	return s
}

// Lane is one in-order pipeline of the storage side the dispatcher feeds,
// the same seam the workload drivers issue through.
type Lane = workload.Lane

// pending is one request the client has generated but not yet put on the
// wire.
type pending struct {
	req Request
	due sim.Time
}

// Tier wires an open-loop client population to a storage backend over one
// simulated Ethernet link. The client side generates timed arrivals,
// coalesces request capsules into frames, and sheds load once the paused
// link backs its bounded backlog up; the server side decodes frames, tracks
// connections, and batches requests into the backend, blocking — and
// therefore pausing the wire — when the dispatch queue fills. All state is
// partitioned by side: client processes touch only client fields, server
// processes only server fields, and the two communicate exclusively through
// encoded frames. The one shared field is the stack of spent frame buffers:
// each receiver hands a frame's buffer back once it has parsed the frame,
// and both transmitters build their next frames in them.
type Tier struct {
	spec  workload.OpenLoopSpec
	lanes []Lane

	k      *sim.Kernel
	cliMAC *ethernet.MAC
	srvMAC *ethernet.MAC

	// Client-side state.
	gen         *workload.OpenLoop
	pendq       sim.FIFO[pending]
	outstanding map[uint64]sim.Time
	started     bool
	startAt     sim.Time
	lastResp    sim.Time
	sent        int64
	dropped     int64
	completed   int64
	failed      int64
	unmatched   int64
	cliMalf     int64
	bytesRead   int64
	bytesWrit   int64
	latency     obs.Hist

	// bufs holds the frame buffers the receivers are done with.
	bufs [][]byte

	// Server-side state.
	table     *ConnTable
	dispatchQ *sim.Chan[Request]
	respQ     *sim.Chan[Response]
	pendRead  []*sim.Chan[Request]
	pendWrite []*sim.Chan[Request]
	peakDisp  int
	srvMalf   int64
	rejected  int64
}

// New builds a serving tier on kernel k. Zero fields of spec select the
// defaults withDefaults lists. With one lane every request goes to it; with
// more, a request goes to the lane of its tenant.
func New(k *sim.Kernel, spec workload.OpenLoopSpec, lanes []Lane) (*Tier, error) {
	spec = withDefaults(spec)
	gen, err := workload.NewOpenLoop(spec)
	if err != nil {
		return nil, err
	}
	if len(lanes) < 1 {
		return nil, fmt.Errorf("serve: at least one lane required")
	}
	if spec.Tenants > 1 && len(lanes) < spec.Tenants {
		return nil, fmt.Errorf("serve: %d tenants need %d lanes, have %d",
			spec.Tenants, spec.Tenants, len(lanes))
	}
	table, err := NewConnTable(spec.Clients)
	if err != nil {
		return nil, err
	}

	t := &Tier{
		spec:        spec,
		lanes:       lanes,
		k:           k,
		gen:         gen,
		outstanding: make(map[uint64]sim.Time),
		table:       table,
		dispatchQ:   sim.NewChan[Request](k, dispatchDepth),
		respQ:       sim.NewChan[Response](k, dispatchDepth),
	}
	t.cliMAC = ethernet.NewMAC(k, "serve.cli", ethernet.DefaultConfig())
	t.srvMAC = ethernet.NewMAC(k, "serve.srv", ethernet.DefaultConfig())
	ethernet.Connect(t.cliMAC, t.srvMAC)

	t.pendRead = make([]*sim.Chan[Request], len(lanes))
	t.pendWrite = make([]*sim.Chan[Request], len(lanes))
	for i := range lanes {
		t.pendRead[i] = sim.NewChan[Request](k, laneWindow)
		t.pendWrite[i] = sim.NewChan[Request](k, laneWindow)
		lane := i
		k.Spawn(fmt.Sprintf("serve.rdrain%d", lane), func(p *sim.Proc) {
			p.SetDaemon(true)
			t.drainLoop(p, lane, true)
		})
		k.Spawn(fmt.Sprintf("serve.wdrain%d", lane), func(p *sim.Proc) {
			p.SetDaemon(true)
			t.drainLoop(p, lane, false)
		})
	}
	k.Spawn("serve.rx", func(p *sim.Proc) {
		p.SetDaemon(true)
		t.serverRxLoop(p)
	})
	k.Spawn("serve.dispatch", func(p *sim.Proc) {
		p.SetDaemon(true)
		t.dispatchLoop(p)
	})
	k.Spawn("serve.resptx", func(p *sim.Proc) {
		p.SetDaemon(true)
		t.respTxLoop(p)
	})
	k.Spawn("serve.clirx", func(p *sim.Proc) {
		p.SetDaemon(true)
		t.clientRxLoop(p)
	})
	return t, nil
}

// Start schedules the open-loop sender at time at (which must not be in the
// client kernel's past). The arrival clock starts there: an arrival due at
// stream time d goes on the wire no earlier than at+d.
func (t *Tier) Start(at sim.Time) error {
	if t.started {
		return fmt.Errorf("serve: tier already started")
	}
	t.started = true
	t.startAt = at
	t.lastResp = at
	t.k.At(at, func() {
		t.k.Spawn("serve.sender", t.senderLoop)
	})
	return nil
}

// senderLoop is the open-loop client: it walks the arrival stream in due
// order, holds generated capsules in a bounded backlog while the link is
// busy or paused, and sheds oldest-first past the bound. It is the only
// non-daemon process in the tier; the simulation quiesces once it finishes
// and the in-flight frames drain.
func (t *Tier) senderLoop(p *sim.Proc) {
	for {
		a, ok := t.gen.Next()
		if !ok {
			break
		}
		due := t.startAt + a.Due
		if wait := due - p.Now(); wait > 0 {
			t.flush()
			for wait > 0 {
				// Wake at the retry tick while backlogged so pause
				// release is noticed promptly; sleep straight to the
				// due time otherwise.
				step := wait
				if t.pendq.Len() > 0 && retryTick < step {
					step = retryTick
				}
				p.Sleep(step)
				t.flush()
				wait = due - p.Now()
			}
		}
		t.enqueue(a, due)
		t.flush()
	}
	// Drain the tail: everything still backlogged either goes out or is
	// shed by later arrivals — and no arrivals remain, so only the link
	// reopening empties it.
	for t.pendq.Len() > 0 {
		if !t.flush() {
			p.Sleep(retryTick)
		}
	}
}

// enqueue appends one arrival to the backlog, shedding the oldest entries
// once the backlog exceeds its bound.
func (t *Tier) enqueue(a workload.Arrival, due sim.Time) {
	req := Request{
		ID:     a.ID,
		Conn:   a.Conn,
		Tenant: a.Tenant,
		Op:     OpRead,
		Addr:   a.Addr,
		N:      a.N,
	}
	if !a.Read {
		req.Op = OpWrite
	}
	if a.Fin {
		req.Flags |= FlagFin
	}
	t.pendq.Push(pending{req: req, due: due})
	for t.pendq.Len() > clientBacklog {
		t.pendq.Pop()
		t.dropped++
	}
}

// flush coalesces backlogged capsules into frames and hands them to the
// MAC until it refuses (tx queue full — paused or line-saturated) or the
// backlog empties. It reports whether any frame was accepted.
func (t *Tier) flush() bool {
	progress := false
	for t.pendq.Len() > 0 {
		n := min(t.pendq.Len(), frameBatch)
		f := ethernet.Frame{Data: t.frameBuf()}
		for i := 0; i < n; i++ {
			req := t.pendq.At(i).req
			f.Data = AppendRequest(f.Data, req)
			f.Bytes += req.WireBytes()
		}
		if !t.cliMAC.TrySend(f) {
			t.recycle(f.Data)
			return progress
		}
		for i := 0; i < n; i++ {
			pe := t.pendq.Pop()
			t.outstanding[pe.req.ID] = pe.due
		}
		t.sent += int64(n)
		progress = true
	}
	return progress
}

// clientRxLoop decodes response frames and closes the loop on latency:
// each response's latency is measured from its arrival's due time, so time
// spent backlogged behind a paused link counts against the tail.
func (t *Tier) clientRxLoop(p *sim.Proc) {
	for {
		f := t.cliMAC.Recv(p)
		b := f.Data
		for len(b) > 0 {
			resp, n, err := ParseResponse(b)
			if err != nil {
				t.cliMalf++
				break
			}
			b = b[n:]
			due, ok := t.outstanding[resp.ID]
			if !ok {
				t.unmatched++
				continue
			}
			delete(t.outstanding, resp.ID)
			if resp.Status != 0 {
				t.failed++
			} else {
				t.completed++
				if resp.Read {
					t.bytesRead += resp.N
				} else {
					t.bytesWrit += resp.N
				}
			}
			t.latency.Record(p.Now() - due)
			if p.Now() > t.lastResp {
				t.lastResp = p.Now()
			}
		}
		t.recycle(f.Data)
	}
}

// serverRxLoop decodes request frames into the dispatch queue. The Put
// blocks when the queue is full; while this process is blocked it is not
// receiving, the MAC's rx FIFO fills, and the pause machinery throttles
// the client — the backpressure loop the tier exists to close.
func (t *Tier) serverRxLoop(p *sim.Proc) {
	for {
		f := t.srvMAC.Recv(p)
		b := f.Data
		for len(b) > 0 {
			req, n, err := ParseRequest(b)
			if err != nil {
				t.srvMalf++
				break
			}
			b = b[n:]
			req.Payload = nil // the frame's buffer is recycled once parsed
			if !t.table.Touch(req.Conn) {
				t.rejected++
				continue
			}
			if req.Fin() {
				t.table.Close(req.Conn)
			}
			t.dispatchQ.Put(p, req)
			if d := t.dispatchQ.Len(); d > t.peakDisp {
				t.peakDisp = d
			}
		}
		t.recycle(f.Data)
	}
}

// dispatchLoop batches queued requests into the lanes, up to
// dispatchBatch per wakeup. The bounded per-lane pend channels block it
// when a lane falls behind, which is what lets the dispatch queue fill and
// trip the pause thresholds upstream.
func (t *Tier) dispatchLoop(p *sim.Proc) {
	for {
		req := t.dispatchQ.Get(p)
		for issued := 0; ; issued++ {
			lane := 0
			if len(t.lanes) > 1 {
				lane = int(req.Tenant)
			}
			if req.Op == OpRead {
				t.lanes[lane].ReadAsync(p, req.Addr, req.N)
				t.pendRead[lane].Put(p, req)
			} else {
				t.lanes[lane].WriteAsync(p, req.Addr, req.N, nil)
				t.pendWrite[lane].Put(p, req)
			}
			if issued+1 >= dispatchBatch {
				break
			}
			var ok bool
			req, ok = t.dispatchQ.TryGet()
			if !ok {
				break
			}
		}
	}
}

// drainLoop pairs one lane-direction's completions with the requests that
// issued them (the Lane contract is in-order per direction) and queues the
// responses for transmission.
func (t *Tier) drainLoop(p *sim.Proc, lane int, read bool) {
	pend := t.pendWrite[lane]
	if read {
		pend = t.pendRead[lane]
	}
	for {
		req := pend.Get(p)
		var err error
		if read {
			_, err = t.lanes[lane].DrainRead(p)
		} else {
			err = t.lanes[lane].WaitWriteErr(p)
		}
		t.table.Done(req.Conn)
		resp := Response{
			ID:     req.ID,
			Conn:   req.Conn,
			Tenant: req.Tenant,
			N:      req.N,
			Read:   read,
		}
		if err != nil {
			resp.Status = 1
			resp.N = 0
		}
		t.respQ.Put(p, resp)
	}
}

// respTxLoop coalesces completed responses into frames headed back to the
// client. Send blocks on a full tx queue — the response path is allowed to
// backpressure the drains.
func (t *Tier) respTxLoop(p *sim.Proc) {
	for {
		resp := t.respQ.Get(p)
		f := ethernet.Frame{Data: t.frameBuf()}
		for n := 0; ; n++ {
			f.Data = AppendResponse(f.Data, resp)
			f.Bytes += resp.WireBytes()
			if n+1 >= frameBatch {
				break
			}
			var ok bool
			resp, ok = t.respQ.TryGet()
			if !ok {
				break
			}
		}
		t.srvMAC.Send(p, f)
	}
}

// frameBuf returns an empty buffer to build a frame in, reusing a spent
// one when there is one.
func (t *Tier) frameBuf() []byte {
	n := len(t.bufs)
	if n == 0 {
		return nil
	}
	b := t.bufs[n-1]
	t.bufs = t.bufs[:n-1]
	return b
}

// recycle hands a frame buffer nothing references any more back for reuse.
func (t *Tier) recycle(b []byte) {
	if cap(b) > 0 {
		t.bufs = append(t.bufs, b[:0])
	}
}

// Report is the tier's result summary. It contains no slices or pointers,
// so two runs' reports compare with == — the kernel-worker identity tests
// rely on that.
type Report struct {
	// Clients is the simulated client population.
	Clients int
	// Generated counts arrivals produced by the open-loop engine; Sent
	// the capsules that made it onto the wire; Dropped the arrivals shed
	// from the backlog while the link was paused.
	Generated, Sent, Dropped int64
	// Completed / Failed / Unmatched partition the responses received.
	Completed, Failed, Unmatched int64
	// Malformed counts undecodable capsules (client + server side);
	// Rejected counts requests with out-of-range connection ids.
	Malformed, Rejected int64
	// BytesRead / BytesWritten are goodput payload bytes.
	BytesRead, BytesWritten int64
	// Elapsed spans tier start to the last response.
	Elapsed sim.Time
	// Latency is the due-to-response distribution (backlog time counts).
	Latency obs.Hist
	// PeakDispatch / DispatchCap report the dispatch-queue high-water
	// mark against its bound.
	PeakDispatch, DispatchCap int
	// PeakConns / ConnCapacity / ConnStateBytes report the connection
	// table: highest concurrent occupancy, addressable clients, and the
	// table's memory footprint.
	PeakConns, ConnCapacity int
	ConnStateBytes          int64
	// Opens / Closes count connection-table transitions.
	Opens, Closes uint64
	// PausesSent / PausesHonored / FramesDropped surface the 802.3x
	// flow-control activity on the server's MAC pair.
	PausesSent, PausesHonored int64
	FramesDropped             int64
}

// GoodputMBps is payload megabytes per wall-second completed end-to-end.
func (r Report) GoodputMBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.BytesRead+r.BytesWritten) / r.Elapsed.Seconds() / 1e6
}

// Report summarizes the run; call it after the simulation quiesces.
func (t *Tier) Report() Report {
	return Report{
		Clients:        t.spec.Clients,
		Generated:      t.gen.Generated(),
		Sent:           t.sent,
		Dropped:        t.dropped,
		Completed:      t.completed,
		Failed:         t.failed,
		Unmatched:      t.unmatched,
		Malformed:      t.cliMalf + t.srvMalf,
		Rejected:       t.rejected,
		BytesRead:      t.bytesRead,
		BytesWritten:   t.bytesWrit,
		Elapsed:        t.lastResp - t.startAt,
		Latency:        t.latency,
		PeakDispatch:   t.peakDisp,
		DispatchCap:    dispatchDepth,
		PeakConns:      t.table.Peak(),
		ConnCapacity:   t.table.Capacity(),
		ConnStateBytes: t.table.StateBytes(),
		Opens:          t.table.Opens(),
		Closes:         t.table.Closes(),
		PausesSent:     t.srvMAC.PausesSent(),
		PausesHonored:  t.cliMAC.PausesHonored(),
		FramesDropped:  t.cliMAC.FramesDropped() + t.srvMAC.FramesDropped(),
	}
}
