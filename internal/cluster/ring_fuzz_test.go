package cluster

import "testing"

// FuzzRingPlacement pins the ring's three load-bearing properties for the
// replication layer across arbitrary cluster shapes and key spaces:
//
//  1. every key maps to exactly min(R, live) distinct live nodes;
//  2. adding a node moves placements only onto the new node;
//  3. removing a node (the live filter) disturbs only placements that
//     contained it — every surviving member stays placed.
func FuzzRingPlacement(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(0), uint64(0))
	f.Add(uint8(4), uint8(2), uint8(1), uint64(42))
	f.Add(uint8(5), uint8(3), uint8(2), uint64(1<<40))
	f.Add(uint8(8), uint8(3), uint8(7), uint64(0xdeadbeef))
	f.Add(uint8(3), uint8(1), uint8(0), uint64(1))
	f.Add(uint8(16), uint8(5), uint8(15), uint64(^uint64(0)))
	f.Fuzz(func(t *testing.T, nodesIn, wantIn, deadIn uint8, key uint64) {
		nodes := int(nodesIn%16) + 2 // 2..17
		want := int(wantIn%uint8(nodes)) + 1
		dead := int(deadIn) % nodes
		r := NewRing(nodes)

		// Property 1: exactly `want` distinct in-range nodes.
		placed := r.Lookup(key, want, nil)
		if len(placed) != want {
			t.Fatalf("nodes=%d want=%d key=%d: placed %v", nodes, want, key, placed)
		}
		seen := map[int]bool{}
		for _, nd := range placed {
			if nd < 0 || nd >= nodes || seen[nd] {
				t.Fatalf("nodes=%d key=%d: bad placement %v", nodes, key, placed)
			}
			seen[nd] = true
		}

		// Property 2: growing the ring only moves placements onto the
		// new node.
		grownSet := NewRing(nodes+1).Lookup(key, want, nil)
		for _, nd := range grownSet {
			if nd != nodes && !seen[nd] {
				t.Fatalf("nodes=%d key=%d: growth moved placement to old node %d (%v -> %v)",
					nodes, key, nd, placed, grownSet)
			}
		}

		// Property 3: killing one node keeps every survivor placed, and
		// the result is exactly min(want, nodes-1) distinct live nodes.
		live := func(nd int) bool { return nd != dead }
		failed := r.Lookup(key, want, live)
		wantLive := want
		if wantLive > nodes-1 {
			wantLive = nodes - 1
		}
		if len(failed) != wantLive {
			t.Fatalf("nodes=%d want=%d dead=%d key=%d: degraded placement %v",
				nodes, want, dead, key, failed)
		}
		failedSet := map[int]bool{}
		for _, nd := range failed {
			if nd == dead {
				t.Fatalf("key=%d: dead node %d placed: %v", key, dead, failed)
			}
			failedSet[nd] = true
		}
		for _, nd := range placed {
			if nd != dead && !failedSet[nd] {
				t.Fatalf("nodes=%d dead=%d key=%d: survivor %d lost its placement (%v -> %v)",
					nodes, dead, key, nd, placed, failed)
			}
		}
	})
}
