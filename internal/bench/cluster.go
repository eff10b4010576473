package bench

import (
	"fmt"

	"snacc/internal/cluster"
	"snacc/internal/fault"
	"snacc/internal/sim"
)

// clusterSeed feeds every cluster rig so rows replay byte-identically.
const clusterSeed = 0xC1057E4

// ClusterSweepRow is one grid point of the replicated-cluster sweep: a
// nodes x replication x quorum shape absorbing a node death mid-workload.
type ClusterSweepRow struct {
	Nodes       int
	Replication int
	Quorum      int
	WriteGB     float64 // write goodput across the whole episode, GB/s
	NodeDeaths  int64   // nodes declared dead (1: the injected kill landed)
	Failovers   int64   // reads served by a non-primary replica
	ReRepMiB    float64 // bytes re-replicated onto survivors, MiB
	DegradedUs  float64 // time any chunk spent under-replicated, µs
	Timeouts    int64   // capsule requests that hit the request timeout
	FailedWr    int64   // writes refused for missing quorum during detection
	UnderRep    int64   // chunks still under-replicated at drain (want 0)
}

// clusterEpisodeConfig is the shared rig shape: timing-mode replicas with
// a tight request timeout so death detection costs µs, not the 10 ms
// production default, and node 1's controller surprise-removed at its
// eighth I/O completion.
func clusterEpisodeConfig(nodes, replication, quorum int) cluster.Config {
	cfg := cluster.DefaultConfig(nodes, replication, quorum)
	cfg.Functional = false
	cfg.Seed = clusterSeed
	cfg.RequestTimeout = sim.Millisecond
	cfg.NodeInjector = func(node int) *fault.Injector {
		if node != 1 {
			return nil
		}
		in := fault.NewInjector(clusterSeed)
		in.Add(fault.Rule{Name: "kill", Kind: fault.RemoveCtrl,
			Opcode: fault.OpAny, Nth: 8, Count: 1})
		return in
	}
	return cfg
}

// ClusterSweep measures write goodput and recovery accounting across a
// grid of cluster shapes, each losing node 1 mid-run. Writes quorum-ack
// and re-home around the death; the background repairer restores full
// replication before the run drains (UnderRep 0). Rows build independent
// clusters with fixed seeds, so the sweep is deterministic at any -j.
func ClusterSweep(grid [][3]int, totalBytes int64) []ClusterSweepRow {
	return mapRows(len(grid), func(i int) ClusterSweepRow {
		shape := grid[i]
		cfg := clusterEpisodeConfig(shape[0], shape[1], shape[2])
		cl := cluster.MustNew(cfg)
		defer cl.Kernel().Close()
		const op = 64 * sim.KiB
		span := 4 * sim.MiB
		var start, end sim.Time
		var okBytes, failed int64
		cl.Execute(func(p *sim.Proc) {
			start = p.Now()
			for off := int64(0); off < totalBytes; off += op {
				// A strict quorum (Q == R) legitimately refuses writes in the
				// window between the kill and the death verdict; that dip is
				// part of the availability story, so count it, don't abort.
				if err := cl.WriteErr(p, uint64(off%span), op, nil); err != nil {
					failed++
					continue
				}
				okBytes += op
			}
			end = p.Now()
		})
		st := cl.Stats()
		return ClusterSweepRow{
			Nodes:       shape[0],
			Replication: shape[1],
			Quorum:      shape[2],
			WriteGB:     float64(okBytes) / (end - start).Seconds() / 1e9,
			NodeDeaths:  st.NodeDeaths,
			Failovers:   st.Failovers,
			ReRepMiB:    float64(st.ReReplicatedBytes) / float64(sim.MiB),
			DegradedUs:  float64(st.DegradedWindowNs) / 1e3,
			Timeouts:    st.RequestTimeouts,
			FailedWr:    failed,
			UnderRep:    st.UnderReplicatedChunks,
		}
	})
}

// ClusterTimeline runs the full availability arc on a 3-node R=2 cluster
// — healthy, node 1 partitioned from the switch (suspect, then dead),
// the link healing, the prober readmitting the node — while a continuous
// write stream samples goodput per window. The dips are the failure
// detection and failover episodes; the recovery after `until`/2 is the
// rejoin. Returns the sampled points and the episode's cluster stats.
func ClusterTimeline(until, window sim.Time) ([]TimelinePoint, cluster.Stats) {
	cfg := cluster.DefaultConfig(3, 2, 1)
	cfg.Functional = false
	cfg.Seed = clusterSeed
	cfg.RequestTimeout = sim.Millisecond
	cfg.Partitions = []cluster.Partition{
		{Node: 1, Drop: true, From: until / 4, Until: until / 2},
	}
	cl := cluster.MustNew(cfg)
	defer cl.Kernel().Close()
	const op = 64 * sim.KiB
	span := 4 * sim.MiB
	var points []TimelinePoint
	cl.Execute(func(p *sim.Proc) {
		windowStart, windowBytes := p.Now(), int64(0)
		for off := int64(0); p.Now() < until; off += op {
			if err := cl.WriteErr(p, uint64(off%span), op, nil); err != nil {
				continue // partition-window writes may time out; keep streaming
			}
			windowBytes += op
			if now := p.Now(); now-windowStart >= window {
				points = append(points, TimelinePoint{
					At:   now,
					GBps: float64(windowBytes) / (now - windowStart).Seconds() / 1e9,
				})
				windowStart, windowBytes = now, 0
			}
		}
	})
	return points, cl.Stats()
}

// RenderClusterSweep formats the replicated-cluster grid sweep.
func RenderClusterSweep(rows []ClusterSweepRow) Table {
	t := Table{
		Title:   "Cluster sweep — node 1 surprise-removed mid-run, quorum writes re-home to survivors",
		Columns: []string{"write GB/s", "deaths", "failovers", "re-rep MiB", "degraded µs", "timeouts", "failed wr", "under-rep"},
		Notes: []string{
			"re-rep = bytes the background repairer copied to restore full replication",
			"failed wr = writes refused while a strict quorum (Q = R) straddled the detection window",
			"under-rep = chunks still below R replicas at drain; 0 means repair completed",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, TableRow{
			Label: fmt.Sprintf("n=%d R=%d Q=%d", r.Nodes, r.Replication, r.Quorum),
			Cells: []string{
				gb(r.WriteGB),
				fmt.Sprintf("%d", r.NodeDeaths), fmt.Sprintf("%d", r.Failovers),
				fmt.Sprintf("%.2f", r.ReRepMiB), fmt.Sprintf("%.1f", r.DegradedUs),
				fmt.Sprintf("%d", r.Timeouts), fmt.Sprintf("%d", r.FailedWr),
				fmt.Sprintf("%d", r.UnderRep),
			},
		})
	}
	return t
}

// RenderClusterRecovery summarizes the timeline episode's recovery ledger.
func RenderClusterRecovery(st cluster.Stats) Table {
	t := Table{
		Title:   "Cluster recovery ledger — partition, death, heal, rejoin",
		Columns: []string{"deaths", "rejoins", "probes", "timeouts", "dropped frames", "re-rep MiB", "under-rep"},
	}
	t.Rows = append(t.Rows, TableRow{
		Label: "3 nodes R=2",
		Cells: []string{
			fmt.Sprintf("%d", st.NodeDeaths), fmt.Sprintf("%d", st.Rejoins),
			fmt.Sprintf("%d", st.Probes), fmt.Sprintf("%d", st.RequestTimeouts),
			fmt.Sprintf("%d", st.LinkFramesDropped),
			fmt.Sprintf("%.2f", float64(st.ReReplicatedBytes)/float64(sim.MiB)),
			fmt.Sprintf("%d", st.UnderReplicatedChunks),
		},
	})
	return t
}
