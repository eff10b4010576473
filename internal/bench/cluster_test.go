package bench

import (
	"reflect"
	"testing"

	"snacc/internal/sim"
)

// TestClusterSweepRecovers: every grid shape absorbs the node-1 kill —
// the death is detected, writes keep landing, the repairer restores full
// replication before drain — and the sweep is deterministic across
// parallelism levels.
func TestClusterSweepRecovers(t *testing.T) {
	grid := [][3]int{{3, 2, 1}, {4, 3, 2}}
	rows := ClusterSweep(grid, 2*sim.MiB)
	for _, r := range rows {
		if r.NodeDeaths != 1 {
			t.Errorf("n=%d R=%d Q=%d: NodeDeaths = %d, want 1", r.Nodes, r.Replication, r.Quorum, r.NodeDeaths)
		}
		if r.UnderRep != 0 {
			t.Errorf("n=%d R=%d Q=%d: %d chunks under-replicated at drain", r.Nodes, r.Replication, r.Quorum, r.UnderRep)
		}
		if r.ReRepMiB == 0 {
			t.Errorf("n=%d R=%d Q=%d: repair never ran", r.Nodes, r.Replication, r.Quorum)
		}
		if r.WriteGB <= 0 {
			t.Errorf("n=%d R=%d Q=%d: no goodput (%v GB/s)", r.Nodes, r.Replication, r.Quorum, r.WriteGB)
		}
	}
	prev := engine
	SetParallelism(4)
	again := ClusterSweep(grid, 2*sim.MiB)
	engine = prev
	if !reflect.DeepEqual(rows, again) {
		t.Errorf("sweep diverged across parallelism levels:\nserial   %+v\nparallel %+v", rows, again)
	}
}

// TestClusterTimelineArc: the availability timeline covers the whole
// kill -> failover -> heal -> rejoin arc on one continuous write stream.
func TestClusterTimelineArc(t *testing.T) {
	pts, st := ClusterTimeline(24*sim.Millisecond, 2*sim.Millisecond)
	if len(pts) < 4 {
		t.Fatalf("only %d timeline samples", len(pts))
	}
	if st.NodeDeaths != 1 {
		t.Errorf("NodeDeaths = %d, want 1 (partition never killed the node)", st.NodeDeaths)
	}
	if st.Rejoins != 1 {
		t.Errorf("Rejoins = %d, want 1 (node never readmitted after heal)", st.Rejoins)
	}
	if st.LinkFramesDropped == 0 {
		t.Error("partition dropped no frames")
	}
	if len(st.DeadNodes) != 0 {
		t.Errorf("DeadNodes = %v after rejoin, want none", st.DeadNodes)
	}
}
