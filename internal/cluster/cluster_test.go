package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"snacc/internal/fault"
	"snacc/internal/obs"
	"snacc/internal/pcie"
	"snacc/internal/sim"
)

// fillPattern writes a deterministic byte pattern derived from tag.
func fillPattern(buf []byte, tag uint64) {
	h := splitmix64(tag)
	for i := range buf {
		if i%8 == 0 {
			h = splitmix64(h)
		}
		buf[i] = byte(h >> (8 * (i % 8)))
	}
}

func TestClusterValidation(t *testing.T) {
	cases := []Config{
		{Nodes: 1, Replication: 1, Quorum: 1},
		{Nodes: 3, Replication: 4, Quorum: 1},
		{Nodes: 3, Replication: 0, Quorum: 0},
		{Nodes: 3, Replication: 2, Quorum: 3},
		{Nodes: 3, Replication: 2, Quorum: 0},
		{Nodes: 3, Replication: 2, Quorum: 1, ChunkBytes: 1000},
		{Nodes: 3, Replication: 2, Quorum: 1, ChunkBytes: 8 * sim.MiB},
		{Nodes: 3, Replication: 2, Quorum: 1, Partitions: []Partition{{Node: 3}}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d (%+v): New accepted an invalid config", i, cfg)
		}
	}
}

func TestClusterWriteReadRoundTrip(t *testing.T) {
	cl := MustNew(DefaultConfig(3, 2, 1))
	const n = 640 * sim.KiB // spans three default chunks
	data := make([]byte, n)
	fillPattern(data, 7)
	var got []byte
	var rerr, werr error
	cl.Execute(func(p *sim.Proc) {
		werr = cl.WriteErr(p, 512, int64(len(data)), data)
		got, rerr = cl.ReadErr(p, 512, n)
	})
	if werr != nil || rerr != nil {
		t.Fatalf("write err %v, read err %v", werr, rerr)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read returned different bytes (first diff at %d)", firstDiff(got, data))
	}
	st := cl.Stats()
	if st.BytesWritten != n || st.BytesRead != n {
		t.Fatalf("BytesWritten/Read = %d/%d, want %d/%d", st.BytesWritten, st.BytesRead, n, n)
	}
	if st.NodeDeaths != 0 || st.Failovers != 0 || st.UnderReplicatedChunks != 0 {
		t.Fatalf("healthy run shows failures: %+v", st)
	}
	if st.Chunks < 3 {
		t.Fatalf("expected >= 3 chunks placed, got %d", st.Chunks)
	}
}

func TestClusterReadUnwrittenReturnsZeros(t *testing.T) {
	cl := MustNew(DefaultConfig(3, 2, 1))
	var got []byte
	var err error
	cl.Execute(func(p *sim.Proc) {
		got, err = cl.ReadErr(p, 4096, 8192)
	})
	if err != nil {
		t.Fatalf("read of unwritten range: %v", err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("unwritten byte %d reads %#x", i, b)
		}
	}
}

// TestClusterReadWireTimeIgnoresFunctional: a read response carries its
// payload on the wire whether or not the cluster moves real bytes, so the
// same 256 KiB read takes the same simulated time on a functional and on a
// timing-only cluster.
func TestClusterReadWireTimeIgnoresFunctional(t *testing.T) {
	const n = 256 * sim.KiB
	elapsed := func(functional bool) (write, read sim.Time) {
		cfg := DefaultConfig(3, 2, 1)
		cfg.Functional = functional
		cl := MustNew(cfg)
		var data []byte
		if functional {
			data = make([]byte, n)
			fillPattern(data, 3)
		}
		cl.Execute(func(p *sim.Proc) {
			t0 := p.Now()
			if err := cl.WriteErr(p, 0, n, data); err != nil {
				t.Errorf("write: %v", err)
			}
			t1 := p.Now()
			if _, err := cl.ReadErr(p, 0, n); err != nil {
				t.Errorf("read: %v", err)
			}
			write, read = t1-t0, p.Now()-t1
		})
		return write, read
	}
	fw, fr := elapsed(true)
	tw, tr := elapsed(false)
	if fw != tw || fr != tr {
		t.Fatalf("functional write/read %v/%v, timing-only %v/%v: want equal", fw, fr, tw, tr)
	}
}

// TestClusterWriteFanout verifies writes really land on R replicas: each
// member of a chunk's set serves the chunk's bytes when read directly.
func TestClusterWriteFanout(t *testing.T) {
	cfg := DefaultConfig(4, 3, 2)
	cfg.ChunkBytes = DefaultChunkBytes
	cl := MustNew(cfg)
	data := make([]byte, cfg.ChunkBytes)
	fillPattern(data, 99)
	cl.Execute(func(p *sim.Proc) {
		if err := cl.WriteErr(p, 0, int64(len(data)), data); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	m := cl.co.chunks[0]
	if m == nil || len(m.set) != 3 {
		t.Fatalf("chunk 0 replica set = %+v, want 3 members", m)
	}
	// Read the chunk straight off each replica over the wire.
	for _, nd := range m.set {
		if got := readReplica(t, cl, nd, 0, cfg.ChunkBytes); !bytes.Equal(got, data) {
			t.Fatalf("replica %d holds different bytes (first diff %d)", nd, firstDiff(got, data))
		}
	}
	// And the per-node streamer counters show R-times write amplification.
	var fanout int64
	for i := 0; i < cfg.Nodes; i++ {
		fanout += cl.Card(i).Streamer.BytesFromPE()
	}
	if want := 3 * cfg.ChunkBytes; fanout != want {
		t.Fatalf("replica write fan-out moved %d bytes, want %d", fanout, want)
	}
}

// readReplica reads n bytes at addr straight off one node over the wire.
func readReplica(t *testing.T, cl *Cluster, nd int, addr uint64, n int64) []byte {
	t.Helper()
	var got []byte
	cl.Execute(func(p *sim.Proc) {
		rep := cl.co.request(p, nd, capsule{Op: opRead, Addr: addr, Len: n})
		if !rep.OK {
			t.Errorf("replica %d read failed: %s", nd, rep.Err)
		}
		got = rep.Data.Bytes()
		rep.Data.Release()
	})
	return got
}

// TestClusterReplicaCopyOnWrite: the replicas of a chunk share its payload
// pages copy on write, so a later write to one replica must not reach the
// other. After an R=2 write, a direct write capsule goes to one replica
// only; that replica must then serve the new bytes and the other the old.
// The direct write starts and ends mid-page, so the media both replaces
// whole shared pages and writes into partly covered ones.
func TestClusterReplicaCopyOnWrite(t *testing.T) {
	cl := MustNew(DefaultConfig(3, 2, 1))
	n := cl.cfg.ChunkBytes
	old := make([]byte, n)
	fillPattern(old, 5)
	cl.Execute(func(p *sim.Proc) {
		if err := cl.WriteErr(p, 0, n, old); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	m := cl.co.chunks[0]
	if m == nil || len(m.set) != 2 {
		t.Fatalf("chunk 0 replica set = %+v, want 2 members", m)
	}
	a, b := m.set[0], m.set[1]
	// Both replicas' media took the chunk's pages by reference.
	for _, nd := range m.set {
		if byRef, _ := cl.Card(nd).Dev.NAND().Store().PageMoves(); byRef < n/pcie.PageSize {
			t.Errorf("replica %d installed %d pages by reference, want >= %d", nd, byRef, n/pcie.PageSize)
		}
	}
	const at = 512
	fresh := bytes.Clone(old)
	fillPattern(fresh[at:n-at], 6)
	cl.Execute(func(p *sim.Proc) {
		data := pcie.NewPages(0, int(n-2*at))
		data.WriteAt(fresh[at:n-at], 0)
		if rep := cl.co.request(p, a, capsule{Op: opWrite, Addr: at, Len: n - 2*at, Data: data}); !rep.OK {
			t.Errorf("direct write to replica %d failed: %s", a, rep.Err)
		}
	})
	if got := readReplica(t, cl, a, 0, n); !bytes.Equal(got, fresh) {
		t.Fatalf("written replica %d does not hold the new bytes (first diff %d)", a, firstDiff(got, fresh))
	}
	if got := readReplica(t, cl, b, 0, n); !bytes.Equal(got, old) {
		t.Fatalf("the write to replica %d reached replica %d (first diff %d)", a, b, firstDiff(got, old))
	}
}

// killNodeInjector surprise-removes node `victim`'s controller at its Nth
// I/O completion.
func killNodeInjector(victim int, nth int64) func(int) *fault.Injector {
	return func(node int) *fault.Injector {
		if node != victim {
			return nil
		}
		in := fault.NewInjector(1)
		in.Add(fault.Rule{Name: "kill", Kind: fault.RemoveCtrl,
			Opcode: fault.OpAny, Nth: nth, Count: 1})
		return in
	}
}

// TestClusterNodeDeathFailoverAndRepair is the robustness headline: a
// whole node dies mid-workload and it is a non-event — reads fail over,
// writes re-home, repair restores full replication, and every byte
// survives.
func TestClusterNodeDeathFailoverAndRepair(t *testing.T) {
	cfg := DefaultConfig(4, 2, 1)
	cfg.Seed = 3
	cfg.NodeInjector = killNodeInjector(1, 6)
	cl := MustNew(cfg)

	const ops = 24
	const ioBytes = 64 * sim.KiB
	shadow := make(map[uint64][]byte)
	var failures []string
	cl.Execute(func(p *sim.Proc) {
		rnd := sim.NewRand(11)
		for i := 0; i < ops; i++ {
			addr := uint64(int64(rnd.Intn(64)) * ioBytes)
			data := make([]byte, ioBytes)
			fillPattern(data, uint64(i)<<32|addr)
			if err := cl.WriteErr(p, addr, int64(len(data)), data); err != nil {
				failures = append(failures, fmt.Sprintf("write %d @%#x: %v", i, addr, err))
				continue
			}
			shadow[addr] = data
			if i%3 == 0 {
				got, err := cl.ReadErr(p, addr, ioBytes)
				if err != nil {
					failures = append(failures, fmt.Sprintf("read %d @%#x: %v", i, addr, err))
				} else if !bytes.Equal(got, data) {
					failures = append(failures, fmt.Sprintf("read %d @%#x: bytes differ at %d", i, addr, firstDiff(got, data)))
				}
			}
		}
	})
	for _, f := range failures {
		t.Error(f)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Full readback after the dust settles: zero data loss.
	var readbackErrs []string
	cl.Execute(func(p *sim.Proc) {
		for addr, want := range shadow {
			got, err := cl.ReadErr(p, addr, ioBytes)
			if err != nil {
				readbackErrs = append(readbackErrs, fmt.Sprintf("readback @%#x: %v", addr, err))
			} else if !bytes.Equal(got, want) {
				readbackErrs = append(readbackErrs, fmt.Sprintf("readback @%#x differs at %d", addr, firstDiff(got, want)))
			}
		}
	})
	for _, f := range readbackErrs {
		t.Error(f)
	}

	st := cl.Stats()
	if st.NodeDeaths != 1 {
		t.Fatalf("NodeDeaths = %d, want 1 (stats %+v)", st.NodeDeaths, st)
	}
	if len(st.DeadNodes) != 1 || st.DeadNodes[0] != 1 {
		t.Fatalf("DeadNodes = %v, want [1]", st.DeadNodes)
	}
	if st.ReReplicatedBytes == 0 {
		t.Fatalf("repair never ran: %+v", st)
	}
	if st.UnderReplicatedChunks != 0 {
		t.Fatalf("cluster still under-replicated after drain: %+v", st)
	}
	if st.DegradedWindowNs == 0 {
		t.Fatalf("degraded window not accounted: %+v", st)
	}
}

// TestPartitionLinkDirections: a partition that names one direction
// applies only on that side of the node's link, one that names neither
// applies on both, and none applies to another node.
func TestPartitionLinkDirections(t *testing.T) {
	for _, c := range []struct {
		pt              Partition
		atNode, atCoord bool
	}{
		{Partition{}, true, true},
		{Partition{ToNode: true}, true, false},
		{Partition{FromNode: true}, false, true},
		{Partition{ToNode: true, FromNode: true}, true, true},
	} {
		c.pt.Node, c.pt.Drop = 1, true
		parts := []Partition{c.pt}
		if got := partitionLink(1, parts, 1, true).FrameFate(0).Drop; got != c.atNode {
			t.Errorf("%+v: node-side drop = %v, want %v", c.pt, got, c.atNode)
		}
		if got := partitionLink(1, parts, 1, false).FrameFate(0).Drop; got != c.atCoord {
			t.Errorf("%+v: coordinator-side drop = %v, want %v", c.pt, got, c.atCoord)
		}
		if partitionLink(1, parts, 0, true).FrameFate(0).Drop || partitionLink(1, parts, 0, false).FrameFate(0).Drop {
			t.Errorf("%+v: a partition of node 1 drops node 0's frames", c.pt)
		}
	}
}

// TestClusterPartitionRejoin: a link partition (not a controller fault)
// isolates a node long enough for the health ladder to declare it dead;
// when the partition heals the prober brings it back, and the cluster ends
// fully replicated with zero data loss. The controller itself never dies,
// so DeadNodes stays empty — the ladder must distinguish a dead link from
// dead hardware only by observed behavior.
func TestClusterPartitionRejoin(t *testing.T) {
	cfg := DefaultConfig(3, 2, 1)
	cfg.Seed = 5
	cfg.RequestTimeout = sim.Millisecond
	cfg.ProbeInterval = 2 * sim.Millisecond
	cfg.ProbeLimit = 25
	cfg.Partitions = []Partition{{Node: 1, Drop: true, From: 0, Until: 20 * sim.Millisecond}}
	cl := MustNew(cfg)

	const ops = 18
	const ioBytes = 32 * sim.KiB
	shadow := make(map[uint64][]byte)
	var failures []string
	cl.Execute(func(p *sim.Proc) {
		for i := 0; i < ops; i++ {
			addr := uint64(int64(i) * 5 * ioBytes) // spread over many chunks
			data := make([]byte, ioBytes)
			fillPattern(data, uint64(i)+0x70617274)
			if err := cl.WriteErr(p, addr, int64(len(data)), data); err != nil {
				failures = append(failures, fmt.Sprintf("write %d: %v", i, err))
				continue
			}
			shadow[addr] = data
		}
	})
	for _, f := range failures {
		t.Error(f)
	}
	if t.Failed() {
		t.FailNow()
	}

	st := cl.Stats()
	if st.NodeDeaths != 1 {
		t.Fatalf("partition did not trip the health ladder: %+v", st)
	}
	if st.Rejoins != 1 {
		t.Fatalf("healed partition did not rejoin: %+v", st)
	}
	if len(st.DeadNodes) != 0 {
		t.Fatalf("link partition reported dead hardware: %v", st.DeadNodes)
	}
	if st.LinkFramesDropped == 0 {
		t.Fatalf("partition dropped no frames: %+v", st)
	}
	if st.RequestTimeouts == 0 || st.Probes == 0 {
		t.Fatalf("ladder ran without timeouts/probes: %+v", st)
	}
	if st.UnderReplicatedChunks != 0 {
		t.Fatalf("cluster still under-replicated after rejoin: %+v", st)
	}

	var readbackErrs []string
	cl.Execute(func(p *sim.Proc) {
		for addr, want := range shadow {
			got, err := cl.ReadErr(p, addr, ioBytes)
			if err != nil {
				readbackErrs = append(readbackErrs, fmt.Sprintf("readback @%#x: %v", addr, err))
			} else if !bytes.Equal(got, want) {
				readbackErrs = append(readbackErrs, fmt.Sprintf("readback @%#x differs at %d", addr, firstDiff(got, want)))
			}
		}
	})
	for _, f := range readbackErrs {
		t.Error(f)
	}
}

// TestClusterDeterministic pins byte-identical behavior across repeated
// runs of the node-death scenario: end time, event count, read-back digest
// and statistics.
func TestClusterDeterministic(t *testing.T) {
	type fingerprint struct {
		stats  Stats
		digest uint64
		now    sim.Time
		events uint64
	}
	run := func() fingerprint {
		cfg := DefaultConfig(4, 2, 1)
		cfg.Seed = 3
		cfg.NodeInjector = killNodeInjector(2, 5)
		cl := MustNew(cfg)
		k := cl.Kernel()
		defer k.Close()
		const ops = 16
		const ioBytes = 32 * sim.KiB
		digest := uint64(14695981039346656037)
		cl.Execute(func(p *sim.Proc) {
			rnd := sim.NewRand(7)
			for i := 0; i < ops; i++ {
				addr := uint64(int64(rnd.Intn(48)) * ioBytes)
				data := make([]byte, ioBytes)
				fillPattern(data, uint64(i))
				if err := cl.WriteErr(p, addr, int64(len(data)), data); err != nil {
					digest ^= 0xbad
				}
				got, err := cl.ReadErr(p, addr, ioBytes)
				if err != nil {
					digest ^= 0xdead
				}
				for _, b := range got {
					digest ^= uint64(b)
					digest *= 1099511628211
				}
				digest ^= uint64(p.Now())
				digest *= 1099511628211
			}
		})
		return fingerprint{stats: cl.Stats(), digest: digest, now: k.Now(), events: k.EventsExecuted()}
	}
	base := run()
	if base.stats.NodeDeaths != 1 {
		t.Fatalf("scenario did not kill the node: %+v", base.stats)
	}
	got := run()
	if got.now != base.now || got.events != base.events {
		t.Errorf("repeat ended at %v after %d events, first run at %v after %d", got.now, got.events, base.now, base.events)
	}
	if got.digest != base.digest {
		t.Errorf("repeat digest %x != first digest %x", got.digest, base.digest)
	}
	if fmt.Sprintf("%+v", got.stats) != fmt.Sprintf("%+v", base.stats) {
		t.Errorf("repeat stats diverged:\n  first:  %+v\n  repeat: %+v", base.stats, got.stats)
	}
}

// TestClusterSpanNodeAttribution: per-node tracers stamp spans with node
// identity and the merged view keeps them attributable.
func TestClusterSpanNodeAttribution(t *testing.T) {
	cfg := DefaultConfig(3, 2, 2)
	cfg.TraceSpans = true
	cl := MustNew(cfg)
	data := make([]byte, 128*sim.KiB)
	fillPattern(data, 5)
	cl.Execute(func(p *sim.Proc) {
		if err := cl.WriteErr(p, 0, int64(len(data)), data); err != nil {
			t.Errorf("write: %v", err)
		}
		if _, err := cl.ReadErr(p, 0, int64(len(data))); err != nil {
			t.Errorf("read: %v", err)
		}
	})
	var spans []obs.Span
	for i := 0; i < cl.Nodes(); i++ {
		spans = append(spans, cl.Card(i).Tracer.Spans()...)
	}
	if len(spans) == 0 {
		t.Fatal("no spans traced")
	}
	nodesSeen := map[int]bool{}
	for _, sp := range spans {
		if sp.Node < 0 || sp.Node >= cfg.Nodes {
			t.Fatalf("span carries node %d outside the cluster", sp.Node)
		}
		nodesSeen[sp.Node] = true
	}
	if len(nodesSeen) < 2 {
		t.Fatalf("R=2 write traffic reached only nodes %v", nodesSeen)
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// TestClusterLaneAsync drives the cluster through its lane methods: async
// writes and reads complete in issue order per direction, a drained read
// reports its length, and an out-of-range transfer fails before any
// capsule reaches a node.
func TestClusterLaneAsync(t *testing.T) {
	cl := MustNew(DefaultConfig(3, 2, 1))
	const ioBytes = 64 * sim.KiB
	bufs := make([][]byte, 4)
	for i := range bufs {
		bufs[i] = make([]byte, ioBytes)
		fillPattern(bufs[i], uint64(i))
	}
	cl.Execute(func(p *sim.Proc) {
		for i, b := range bufs {
			cl.WriteAsync(p, uint64(int64(i)*ioBytes), ioBytes, b)
		}
		cl.WriteAsync(p, uint64(cl.Capacity()), 512, nil)
		for i := range bufs {
			if err := cl.WaitWriteErr(p); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
		}
		if err := cl.WaitWriteErr(p); err == nil {
			t.Error("out-of-range async write succeeded")
		}
		for i := range bufs {
			cl.ReadAsync(p, uint64(int64(i)*ioBytes), ioBytes)
		}
		cl.ReadAsync(p, ^uint64(0)-511, 512)
		for i := range bufs {
			if n, err := cl.DrainRead(p); n != ioBytes || err != nil {
				t.Errorf("read %d: %d bytes, %v", i, n, err)
			}
		}
		if n, err := cl.DrainRead(p); n != 0 || err == nil {
			t.Errorf("out-of-range async read: %d bytes, %v", n, err)
		}
		for i, b := range bufs {
			got, err := cl.ReadErr(p, uint64(int64(i)*ioBytes), ioBytes)
			if err != nil || !bytes.Equal(got, b) {
				t.Errorf("read-back %d: err %v, first diff %d", i, err, firstDiff(got, b))
			}
		}
	})
	st := cl.Stats()
	if st.NodeDeaths != 0 || st.Failovers != 0 || st.RequestTimeouts != 0 {
		t.Fatalf("healthy lane run shows failures: %+v", st)
	}
	if len(cl.reads) != 0 || len(cl.writes) != 0 {
		t.Fatalf("%d reads and %d writes left outstanding", len(cl.reads), len(cl.writes))
	}
}
