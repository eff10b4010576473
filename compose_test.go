package snacc

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"snacc/internal/sim"
)

// clusterOpts is a 3-node, R=2, Q=1 cluster.
func clusterOpts() *ClusterOptions {
	return &ClusterOptions{Nodes: 3, Replication: 2, Quorum: 1}
}

// TestClusterOptionErrors: the combinations that stay meaningless on a
// cluster and malformed per-node fault maps fail NewSystem with an error.
func TestClusterOptionErrors(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"tenants", Options{Cluster: clusterOpts(), Tenants: tenantServeOpts().Tenants}, "incompatible"},
		{"boundary", Options{Cluster: clusterOpts(), Trace: &TraceOptions{Boundary: true}}, "Boundary"},
		{"node fault key past the nodes", Options{Cluster: &ClusterOptions{Nodes: 3, Replication: 2, Quorum: 1,
			NodeFaults: map[int]*FaultOptions{7: {ReadErrorRate: 0.5}}}}, "node 7"},
		{"negative node fault key", Options{Cluster: &ClusterOptions{Nodes: 3, Replication: 2, Quorum: 1,
			NodeFaults: map[int]*FaultOptions{-1: {}}}}, "node -1"},
		{"node crash every command", Options{Cluster: &ClusterOptions{Nodes: 3, Replication: 2, Quorum: 1,
			NodeFaults: map[int]*FaultOptions{1: {CrashEveryNCmds: 1}}}}, "CrashEveryNCmds"},
		{"one node", Options{Cluster: &ClusterOptions{Nodes: 1, Replication: 1, Quorum: 1}}, "Nodes"},
	}
	for _, tc := range cases {
		if _, err := NewSystem(tc.opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}
}

// TestClusterOutOfRangeKeepsNodesHealthy: a transfer past the cluster's
// logical capacity fails without sending a capsule, so it cannot read as a
// node failure: no death, no failover, no re-replication.
func TestClusterOutOfRangeKeepsNodesHealthy(t *testing.T) {
	sys := MustNewSystem(Options{Cluster: clusterOpts()})
	capacity := uint64(sys.Capacity())
	want := bytes.Repeat([]byte{0x6d}, 4096)
	var got []byte
	var err error
	sys.Execute(func(h *Handle) {
		for i := uint64(0); i < 3; i++ {
			if _, err := h.ReadErr(capacity+i*4096, 4096); err == nil {
				t.Errorf("read %d past capacity succeeded", i)
			}
		}
		if _, err := h.ReadErr(capacity-512, 1024); err == nil {
			t.Error("read straddling capacity succeeded")
		}
		if err := h.WriteErr(^uint64(0)&^511, make([]byte, 1024)); err == nil {
			t.Error("write wrapping the address space succeeded")
		}
		if err := h.WriteErr(capacity, make([]byte, 4096)); err == nil {
			t.Error("write past capacity succeeded")
		}
		if err = h.WriteErr(capacity-4096, want); err == nil {
			got, err = h.ReadErr(capacity-4096, 4096)
		}
	})
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("round trip at the end of capacity: err %v, bytes equal %v", err, bytes.Equal(got, want))
	}
	st := sys.Stats()
	if st.NodeDeaths != 0 || st.Failovers != 0 || st.ReReplicatedBytes != 0 || len(st.DeadNodes) != 0 {
		t.Errorf("out-of-range transfers hurt healthy nodes: deaths %d, failovers %d, re-replicated %d, dead %v",
			st.NodeDeaths, st.Failovers, st.ReReplicatedBytes, st.DeadNodes)
	}
}

// TestClusterStatsAccounting: a cluster's Stats sum every node's Streamer,
// tracer and injector — spans, injected faults and doorbells included.
func TestClusterStatsAccounting(t *testing.T) {
	co := clusterOpts()
	co.NodeFaults = map[int]*FaultOptions{0: {Seed: 3, ReadErrorRate: 0.2, WriteErrorRate: 0.2}}
	sys := MustNewSystem(Options{Cluster: co, Trace: &TraceOptions{SpanLimit: 1 << 12}})
	const ioBytes = 64 * sim.KiB
	sys.Execute(func(h *Handle) {
		for i := int64(0); i < 16; i++ {
			data := bytes.Repeat([]byte{byte(i)}, int(ioBytes))
			check(t, h.WriteErr(uint64(i*ioBytes), data))
			if got := mustRead(t, h, uint64(i*ioBytes), ioBytes); !bytes.Equal(got, data) {
				t.Errorf("op %d read back different bytes", i)
			}
		}
	})
	st := sys.Stats()
	if n := int64(len(sys.Spans())); st.SpansOpened == 0 || st.SpansOpened != st.SpansClosed || st.SpansClosed != n {
		t.Errorf("spans opened %d, closed %d, retained %d; want all equal and non-zero", st.SpansOpened, st.SpansClosed, n)
	}
	if st.FaultsInjected == 0 || st.CommandRetries == 0 {
		t.Errorf("faults injected %d, retries %d; want both non-zero", st.FaultsInjected, st.CommandRetries)
	}
	if st.DoorbellWrites == 0 || st.PCIeSSDRx == 0 || len(st.IOQueueDepthPeak) != 1 || st.IOQueueDepthPeak[0] == 0 {
		t.Errorf("doorbells %d, SSD PCIe rx %d, queue peaks %v; want non-zero", st.DoorbellWrites, st.PCIeSSDRx, st.IOQueueDepthPeak)
	}
}

// TestClusterSystemFaults: Options.Faults arms every node that has no
// NodeFaults entry of its own, and the recovery ladder hides its injected
// read errors.
func TestClusterSystemFaults(t *testing.T) {
	co := clusterOpts()
	co.NodeFaults = map[int]*FaultOptions{0: {}}
	sys := MustNewSystem(Options{Cluster: co, Faults: &FaultOptions{Seed: 5, ReadErrorRate: 0.3}})
	want := bytes.Repeat([]byte{0x5e, 0xe5}, 256*1024)
	sys.Execute(func(h *Handle) {
		check(t, h.WriteErr(0, want))
		for i := 0; i < 4; i++ {
			if got := mustRead(t, h, 0, int64(len(want))); !bytes.Equal(got, want) {
				t.Errorf("read %d returned different bytes", i)
			}
		}
	})
	st := sys.Stats()
	if st.FaultsInjected == 0 || st.CommandRetries == 0 || st.NodeDeaths != 0 {
		t.Errorf("faults %d, retries %d, deaths %d; want faults retried on live nodes",
			st.FaultsInjected, st.CommandRetries, st.NodeDeaths)
	}
}

// TestClusterRunWorkload: the workload driver issues through the cluster
// like through a Streamer, pipelined and in order per direction.
func TestClusterRunWorkload(t *testing.T) {
	sys := MustNewSystem(Options{Cluster: clusterOpts()})
	spec := DefaultWorkload()
	spec.TotalBytes = 2 * sim.MiB
	res, err := sys.RunWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesRead+res.BytesWritten != spec.TotalBytes || res.Reads == 0 || res.Writes == 0 {
		t.Errorf("moved %d+%d bytes in %d reads and %d writes, want %d bytes of both",
			res.BytesRead, res.BytesWritten, res.Reads, res.Writes, spec.TotalBytes)
	}
	if st := sys.Stats(); st.NodeDeaths != 0 || st.Failovers != 0 || st.CommandsRetired == 0 {
		t.Errorf("healthy workload: deaths %d, failovers %d, retired %d", st.NodeDeaths, st.Failovers, st.CommandsRetired)
	}
}

// serveClusterRun serves a fleet against a 3-node R=2 cluster whose node 1
// controller is surprise-removed mid-run, then round-trips one block
// through the survivors.
func serveClusterRun(t *testing.T, workers int) (ServeReport, Stats) {
	co := clusterOpts()
	co.RequestTimeoutNs = int64(sim.Millisecond)
	co.NodeFaults = map[int]*FaultOptions{1: {RemoveAtCommand: 200}}
	so := serveOpts()
	so.Requests = 1500
	sys := MustNewSystem(Options{Cluster: co, Serve: so, KernelWorkers: workers})
	rep, err := sys.Serve()
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xc1, 0x05}, 32*1024)
	var got []byte
	sys.Execute(func(h *Handle) {
		if err = h.WriteErr(uint64(16*sim.MiB), want); err == nil {
			got, err = h.ReadErr(uint64(16*sim.MiB), int64(len(want)))
		}
	})
	if err != nil || !bytes.Equal(got, want) {
		t.Errorf("workers %d: round trip after the run: err %v, bytes equal %v", workers, err, bytes.Equal(got, want))
	}
	return rep, sys.Stats()
}

// TestServeFacadeCluster composes the serving tier with a replicated
// cluster: every request completes across a node death, repair restores
// full replication, and the run is identical at one and two kernel workers.
func TestServeFacadeCluster(t *testing.T) {
	rep, st := serveClusterRun(t, 1)
	if rep.Generated != 1500 || rep.Completed != rep.Generated || rep.Failed != 0 || rep.Dropped != 0 {
		t.Errorf("generated %d, completed %d, failed %d, dropped %d; want all 1500 completed",
			rep.Generated, rep.Completed, rep.Failed, rep.Dropped)
	}
	if !reflect.DeepEqual(st.DeadNodes, []int{1}) || st.NodeDeaths != 1 {
		t.Errorf("dead nodes %v (%d deaths), want [1]", st.DeadNodes, st.NodeDeaths)
	}
	if st.UnderReplicatedChunks != 0 || st.ReReplicatedBytes == 0 {
		t.Errorf("under-replicated %d, re-replicated %d bytes; want repair complete",
			st.UnderReplicatedChunks, st.ReReplicatedBytes)
	}
	rep2, st2 := serveClusterRun(t, 2)
	if fmt.Sprintf("%+v", rep2) != fmt.Sprintf("%+v", rep) {
		t.Errorf("report diverged at 2 workers:\n  w1: %+v\n  w2: %+v", rep, rep2)
	}
	if fmt.Sprintf("%+v", st2) != fmt.Sprintf("%+v", st) {
		t.Errorf("stats diverged at 2 workers:\n  w1: %+v\n  w2: %+v", st, st2)
	}
}

// fuzzOptions decodes a fuzz input into a facade option combination: mask
// bits switch Serve, Tenants, Faults, Cluster, Trace and Functional; knobs
// pick IOQueues (0..9, 9 past the bound), DoorbellBatch (0, 1, 4 or -1) and
// the fault flavour (one of them rejected by NewSystem).
func fuzzOptions(mask, knobs uint8) Options {
	opts := Options{Seed: uint64(knobs)}
	if mask&1 != 0 {
		so := serveOpts()
		so.Requests = 200
		so.SpanBytes = 16 * sim.MiB
		opts.Serve = so
	}
	if mask&2 != 0 {
		opts.Tenants = tenantServeOpts().Tenants
	}
	if mask&4 != 0 {
		opts.Faults = []*FaultOptions{
			{Seed: 2, ReadErrorRate: 0.2, WriteErrorRate: 0.1},
			{CrashEveryNCmds: 7},
			{RemoveAtCommand: 9},
			{CrashEveryNCmds: 1},
		}[knobs>>6]
	}
	if mask&8 != 0 {
		opts.Cluster = clusterOpts()
		opts.Cluster.RequestTimeoutNs = int64(sim.Millisecond)
	}
	if mask&16 != 0 {
		opts.Trace = &TraceOptions{SpanLimit: 64}
	}
	if mask&32 != 0 {
		opts.Functional = new(bool)
	}
	opts.IOQueues = int(knobs & 15 % 10)
	opts.DoorbellBatch = []int{0, 1, 4, -1}[knobs>>4&3]
	return opts
}

// fuzzRun builds the combination and, if NewSystem accepts it, runs a short
// Handle workload and the serving tier, and renders everything observable.
func fuzzRun(t *testing.T, mask, knobs uint8) (string, error) {
	sys, err := NewSystem(fuzzOptions(mask, knobs))
	if err != nil {
		return "", err
	}
	defer sys.Close()
	var out strings.Builder
	sys.Execute(func(h *Handle) {
		for i := 0; i < 6; i++ {
			addr, data := uint64(i)*8192, bytes.Repeat([]byte{byte(i + 1)}, 8192)
			var werr, rerr error
			var got []byte
			if sys.hub != nil {
				werr = h.TenantWrite(i%2, addr, data)
				got, rerr = h.TenantRead(i%2, addr, 8192)
			} else {
				werr = h.WriteErr(addr, data)
				got, rerr = h.ReadErr(addr, 8192)
			}
			fmt.Fprintf(&out, "op %d: %v %v %x\n", i, werr, rerr, got[:min(len(got), 4)])
		}
	})
	if sys.serve != nil {
		rep, err := sys.Serve()
		fmt.Fprintf(&out, "serve: %+v %v\n", rep, err)
	}
	fmt.Fprintf(&out, "stats: %+v\n", sys.Stats())
	return out.String(), nil
}

// FuzzOptions: every facade option combination either fails NewSystem with
// an error or drains a short workload without panicking, and a second run
// of the same combination reproduces the first exactly, event count
// included.
func FuzzOptions(f *testing.F) {
	for _, seed := range [][2]uint8{
		{0, 0},
		{1 | 8 | 4 | 16, 0},       // serve on a faulty traced cluster
		{1 | 2 | 4, 3 | 1<<6},     // serve through tenants on crashing controllers
		{8 | 4 | 16, 2 << 6},      // traced cluster, every node removed at its 9th command
		{2 | 8, 0},                // tenants on a cluster: rejected
		{4, 3 << 6},               // CrashEveryNCmds 1: rejected
		{1 | 16 | 32, 4 | 2<<4},   // timing-only traced serve on 4 queues, doorbell batch 4
		{0, 9},                    // IOQueues 9: rejected
		{0, 3 << 4},               // DoorbellBatch -1: rejected
		{2 | 4 | 16, 2 | 1<<4},    // traced tenants with faults on 2 queues, doorbell batch 1
		{1 | 2, 5 | 2<<4},         // serve through tenants on 5 queues, doorbell batch 4
		{1 | 4, 14 | 1<<4 | 1<<6}, // serve on 4 queues crashing every 7th command
		{8 | 16, 4 | 2<<4},        // traced cluster, 4 queues per node, doorbell batch 4
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, mask, knobs uint8) {
		first, err1 := fuzzRun(t, mask, knobs)
		again, err2 := fuzzRun(t, mask, knobs)
		if err1 != nil {
			t.Logf("rejected: %v", err1)
		}
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("NewSystem disagrees across runs: %v vs %v", err1, err2)
		}
		if first != again {
			t.Fatalf("results diverged across runs:\n  first: %s\n  again: %s", first, again)
		}
	})
}
