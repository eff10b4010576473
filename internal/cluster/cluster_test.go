package cluster

import (
	"bytes"
	"fmt"
	"testing"

	"snacc/internal/fault"
	"snacc/internal/obs"
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
		nd := nd
		var got []byte
		cl.Execute(func(p *sim.Proc) {
			a := cl.co.request(p, nd, capsule{Op: opRead, Addr: 0, Len: cfg.ChunkBytes}, nil)
			if !a.rep.OK {
				t.Errorf("replica %d read failed: %s", nd, a.rep.Err)
			}
			got = a.data
		})
		if !bytes.Equal(got, data) {
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

// TestClusterDeterminismAcrossWorkers pins byte-identical behavior at any
// shard worker count for the node-death scenario.
func TestClusterDeterminismAcrossWorkers(t *testing.T) {
	type fingerprint struct {
		stats  Stats
		digest uint64
		now    sim.Time
		events uint64
	}
	run := func(workers int) fingerprint {
		cfg := DefaultConfig(4, 2, 1)
		cfg.Seed = 3
		cfg.KernelWorkers = workers
		cfg.NodeInjector = killNodeInjector(2, 5)
		cl := MustNew(cfg)
		defer cl.Engine().Close()
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
		eng := cl.Engine()
		return fingerprint{stats: cl.Stats(), digest: digest, now: eng.Now(), events: eng.EventsExecuted()}
	}
	base := run(1)
	if base.stats.NodeDeaths != 1 {
		t.Fatalf("scenario did not kill the node: %+v", base.stats)
	}
	for _, w := range []int{2, 4} {
		got := run(w)
		if got.now != base.now || got.events != base.events {
			t.Errorf("workers=%d ended at %v after %d events, workers=1 at %v after %d", w, got.now, got.events, base.now, base.events)
		}
		if got.digest != base.digest {
			t.Errorf("workers=%d digest %x != workers=1 digest %x", w, got.digest, base.digest)
		}
		if fmt.Sprintf("%+v", got.stats) != fmt.Sprintf("%+v", base.stats) {
			t.Errorf("workers=%d stats diverged:\n  w1: %+v\n  w%d: %+v", w, base.stats, w, got.stats)
		}
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
