package cluster

import (
	"fmt"
	"sort"
)

// Ring is a consistent-hash ring sharding the cluster's logical byte space
// across nodes. Each node projects DefaultVNodes points onto a 64-bit
// circle; a key hashes onto the circle and its replica set is the first R
// *distinct live* nodes walking clockwise from that point. Because a node's
// points depend only on its own identity, adding or removing a node moves
// only the arcs adjacent to its points — every other placement is stable,
// the property FuzzRingPlacement pins.
type Ring struct {
	nodes  int
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node int
}

// DefaultVNodes is the virtual-node count per physical node; enough points
// that placement spreads evenly at the small cluster sizes the simulator
// runs (a handful of nodes), small enough that lookups stay cheap.
const DefaultVNodes = 64

// NewRing builds the ring for nodes physical nodes, DefaultVNodes points
// each.
func NewRing(nodes int) *Ring {
	if nodes <= 0 {
		panic(fmt.Sprintf("cluster: ring needs at least one node, got %d", nodes))
	}
	r := &Ring{nodes: nodes}
	for n := 0; n < nodes; n++ {
		for v := 0; v < DefaultVNodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(n, v), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// 64-bit collisions are vanishingly rare but must still order
		// deterministically.
		return a.node < b.node
	})
	return r
}

// Lookup returns up to want distinct nodes for key, walking clockwise from
// the key's hash and skipping nodes the live filter rejects (nil accepts
// all). Fewer than want nodes come back only when fewer live nodes exist.
func (r *Ring) Lookup(key uint64, want int, live func(node int) bool) []int {
	if want <= 0 {
		return nil
	}
	h := keyHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	var out []int
	seen := make([]bool, r.nodes)
	for i := 0; i < len(r.points) && len(out) < want; i++ {
		pt := r.points[(start+i)%len(r.points)]
		if seen[pt.node] {
			continue
		}
		seen[pt.node] = true
		if live != nil && !live(pt.node) {
			continue
		}
		out = append(out, pt.node)
	}
	return out
}

// splitmix64 is the avalanche finalizer both hash functions share —
// deterministic across runs and platforms, no seed material.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// pointHash places virtual node v of physical node n on the circle.
func pointHash(n, v int) uint64 {
	return splitmix64(uint64(n)<<32 | uint64(uint32(v)) | 1<<63)
}

// keyHash places a chunk key on the circle.
func keyHash(key uint64) uint64 { return splitmix64(key) }
