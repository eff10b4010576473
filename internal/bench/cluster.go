package bench

import (
	"fmt"
	"slices"

	"snacc/internal/cluster"
	"snacc/internal/fault"
	"snacc/internal/sim"
)

// clusterSeed feeds every cluster rig so rows replay byte-identically.
const clusterSeed = 0xC1057E4

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
// replication before the run drains. Each row, labelled "n=N R=R Q=Q",
// reports the write goodput across the whole episode, the nodes declared
// dead (1: the injected kill landed), the reads served by a non-primary
// replica, the MiB re-replicated onto survivors, the time any chunk spent
// under-replicated, the capsule requests that timed out, the writes
// refused for missing quorum during detection, and the chunks still
// under-replicated at drain (want 0). Rows build independent clusters with
// fixed seeds, so the sweep is deterministic at any -j.
func ClusterSweep(grid [][3]int, totalBytes int64) Table {
	rows := mapRows(len(grid), func(i int) Row {
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
		return Row{Label: fmt.Sprintf("n=%d R=%d Q=%d", shape[0], shape[1], shape[2]), Values: []float64{
			float64(okBytes) / (end - start).Seconds() / 1e9,
			float64(st.NodeDeaths), float64(st.Failovers),
			float64(st.ReReplicatedBytes) / float64(sim.MiB), float64(st.DegradedWindowNs) / 1e3,
			float64(st.RequestTimeouts), float64(failed), float64(st.UnderReplicatedChunks),
		}}
	})
	return Table{
		Title: "Cluster sweep — node 1 surprise-removed mid-run, quorum writes re-home to survivors",
		Columns: slices.Concat([]Column{{"write GB/s", gb}}, cols(count, "deaths", "failovers"),
			[]Column{{"re-rep MiB", gb}, {"degraded µs", tenth}},
			cols(count, "timeouts", "failed wr", "under-rep")),
		Rows: rows,
		Notes: []string{
			"re-rep = bytes the background repairer copied to restore full replication",
			"failed wr = writes refused while a strict quorum (Q = R) straddled the detection window",
			"under-rep = chunks still below R replicas at drain; 0 means repair completed",
		},
	}
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

// clusterRecovery tabulates the timeline episode's recovery ledger.
func clusterRecovery(st cluster.Stats) Table {
	return Table{
		Title: "Cluster recovery ledger — partition, death, heal, rejoin",
		Columns: slices.Concat(cols(count, "deaths", "rejoins", "probes", "timeouts", "dropped frames"),
			[]Column{{"re-rep MiB", gb}, {"under-rep", count}}),
		Rows: []Row{{Label: "3 nodes R=2", Values: []float64{
			float64(st.NodeDeaths), float64(st.Rejoins), float64(st.Probes),
			float64(st.RequestTimeouts), float64(st.LinkFramesDropped),
			float64(st.ReReplicatedBytes) / float64(sim.MiB), float64(st.UnderReplicatedChunks),
		}}},
	}
}
