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
	tb := ClusterSweep(grid, 2*sim.MiB)
	if len(tb.Rows) != len(grid) {
		t.Fatalf("%d rows for %d shapes", len(tb.Rows), len(grid))
	}
	for _, r := range tb.Rows {
		if d := value(t, tb, r.Label, "deaths"); d != 1 {
			t.Errorf("%s: NodeDeaths = %v, want 1", r.Label, d)
		}
		if u := value(t, tb, r.Label, "under-rep"); u != 0 {
			t.Errorf("%s: %v chunks under-replicated at drain", r.Label, u)
		}
		if value(t, tb, r.Label, "re-rep MiB") == 0 {
			t.Errorf("%s: repair never ran", r.Label)
		}
		if w := value(t, tb, r.Label, "write GB/s"); w <= 0 {
			t.Errorf("%s: no goodput (%v GB/s)", r.Label, w)
		}
	}
	prev := engine
	SetParallelism(4)
	again := ClusterSweep(grid, 2*sim.MiB)
	engine = prev
	if !reflect.DeepEqual(tb.Rows, again.Rows) {
		t.Errorf("sweep diverged across parallelism levels:\nserial\n%s\nparallel\n%s", tb, again)
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
