package cluster

import "testing"

func TestRingLookupDistinctAndFull(t *testing.T) {
	r := NewRing(5)
	for key := uint64(0); key < 200; key++ {
		got := r.Lookup(key, 3, nil)
		if len(got) != 3 {
			t.Fatalf("key %d: got %d nodes, want 3", key, len(got))
		}
		seen := map[int]bool{}
		for _, nd := range got {
			if nd < 0 || nd >= 5 {
				t.Fatalf("key %d: node %d out of range", key, nd)
			}
			if seen[nd] {
				t.Fatalf("key %d: duplicate node %d in %v", key, nd, got)
			}
			seen[nd] = true
		}
	}
}

func TestRingLookupSkipsDeadNodes(t *testing.T) {
	r := NewRing(4)
	dead := 2
	live := func(nd int) bool { return nd != dead }
	for key := uint64(0); key < 200; key++ {
		got := r.Lookup(key, 3, live)
		if len(got) != 3 {
			t.Fatalf("key %d: got %d live nodes, want 3", key, len(got))
		}
		for _, nd := range got {
			if nd == dead {
				t.Fatalf("key %d: dead node %d placed: %v", key, dead, got)
			}
		}
	}
	// Wanting more replicas than live nodes returns all live nodes.
	if got := r.Lookup(7, 4, live); len(got) != 3 {
		t.Fatalf("want-4 with 3 live returned %v", got)
	}
}

func TestRingPlacementSpread(t *testing.T) {
	r := NewRing(4)
	counts := make([]int, 4)
	const keys = 4096
	for key := uint64(0); key < keys; key++ {
		counts[r.Lookup(key, 1, nil)[0]]++
	}
	for nd, c := range counts {
		// Even spread would be 1024 per node; virtual nodes keep the
		// imbalance well inside 2x.
		if c < keys/8 || c > keys/2 {
			t.Fatalf("node %d holds %d/%d primaries — ring badly unbalanced: %v", nd, c, keys, counts)
		}
	}
}

// TestRingStabilityUnderGrowth pins the consistent-hashing property the
// fuzz target generalizes: adding a node only moves placements onto the
// new node; every placement that changes at all gains only the new node.
func TestRingStabilityUnderGrowth(t *testing.T) {
	old := NewRing(4)
	grown := NewRing(5)
	moved := 0
	const keys = 2048
	for key := uint64(0); key < keys; key++ {
		before := old.Lookup(key, 2, nil)
		after := grown.Lookup(key, 2, nil)
		beforeSet := map[int]bool{}
		for _, nd := range before {
			beforeSet[nd] = true
		}
		for _, nd := range after {
			if !beforeSet[nd] {
				if nd != 4 {
					t.Fatalf("key %d: placement moved to pre-existing node %d (%v -> %v)", key, nd, before, after)
				}
				moved++
			}
		}
	}
	if moved == 0 {
		t.Fatalf("no placement moved to the new node across %d keys", keys)
	}
	if moved > keys {
		t.Fatalf("moved %d placements of %d keys — more than the new node's fair share region", moved, keys)
	}
}
