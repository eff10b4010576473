package sim

import (
	"fmt"
	"testing"
)

// FuzzShardSchedule cross-checks the conservative-parallel scheduler against
// the flat serial kernel on randomized scenarios: an arbitrary domain graph
// (1-4 domains, random lookaheads, optional muted edges and turnaround
// declarations) drives a deterministic hash-derived event tree — folds,
// local children, silent leaves, cross-domain sends — and the harness
// asserts:
//
//   - workers ∈ {1, 2, 4} produce identical per-domain execution chains
//     (order-sensitive digests), event counts, and round counts;
//   - the shard's commutative digest and per-domain event counts equal a
//     flat serial Kernel executing the same scenario with edges replaced by
//     plain At scheduling at the same timestamps.
//
// The flat comparison is commutative (a multiset digest) by design: the
// shard delivers same-timestamp cross-domain events in (time, src domain,
// src seq) order while a flat kernel interleaves them in send order, so the
// two executions agree on *what* runs and *when* but may legally disagree on
// tie order between domains. Within one domain — and between worker counts —
// order is pinned exactly.
//
// Event behavior is a pure function of a self-contained event id (hashed
// from the parent id), never of a shared counter, so the executed multiset
// is independent of tie-breaking order and the digests are comparable.
func FuzzShardSchedule(f *testing.F) {
	// Seed corpus: single domain (serial degeneration), a 3-domain chain
	// with turnarounds, and a 3-domain cycle with one muted edge.
	f.Add([]byte{0})
	f.Add([]byte{
		2,                                  // 3 domains
		0x29, 0x00, 0x00, 0x45, 0x00, 0x00, // chain 0->1 (11ns), 1->2 (18ns)
		5, 0, 9, // turnarounds
		1, 10, 200, // dom0: 2 roots
		0, 50, // dom1: 1 root
		2, 0, 7, 99, // dom2: 3 roots
	})
	f.Add([]byte{
		2,                                  // 3 domains
		0x29, 0x0a, 0x00, 0x45, 0x31, 0x00, // cycle 0->1->2->0, muted 0->2
		0, 4, 0, // turnarounds
		1, 3, 60, // dom0: 2 roots
		0, 128, // dom1: 1 root
		0, 0, // dom2: 1 root
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		topo := parseFuzzTopo(data)
		flat := runFlatScenario(topo)
		base := runShardScenario(topo, 1)
		if base.events != flat.events || base.sum() != flat.sum() {
			t.Fatalf("shard(workers=1) diverged from flat kernel: events %d vs %d, digest %016x vs %016x",
				base.events, flat.events, base.sum(), flat.sum())
		}
		for dom := range base.counts {
			if base.counts[dom] != flat.counts[dom] {
				t.Fatalf("domain %d executed %d events sharded vs %d flat", dom, base.counts[dom], flat.counts[dom])
			}
		}
		for _, w := range []int{2, 4} {
			r := runShardScenario(topo, w)
			if r.events != base.events || r.rounds != base.rounds {
				t.Fatalf("workers=%d ran %d events in %d rounds; workers=1 ran %d in %d",
					w, r.events, r.rounds, base.events, base.rounds)
			}
			for dom := range base.chains {
				if r.chains[dom] != base.chains[dom] {
					t.Fatalf("workers=%d domain %d chain %016x != workers=1 chain %016x (determinism violation)",
						w, dom, r.chains[dom], base.chains[dom])
				}
			}
		}
	})
}

// fuzzEdge is one directed link of a generated topology.
type fuzzEdge struct {
	src, dst int
	look     Time
	muted    bool
}

// fuzzTopo is a parsed fuzz scenario: the domain graph plus per-domain
// turnarounds and root event times.
type fuzzTopo struct {
	nd    int
	edges []fuzzEdge
	turn  []Time
	roots [][]Time
	// outs[dom] indexes the non-muted outgoing edges of dom — the only
	// channels the generated workload sends on (muted edges stay declared
	// but idle, exercising the window-widening path without tripping the
	// muted-send panic).
	outs [][]int
}

// parseFuzzTopo derives a bounded scenario from raw fuzz bytes. Exhausted
// input reads as zero, so every byte string parses.
func parseFuzzTopo(data []byte) fuzzTopo {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	var topo fuzzTopo
	topo.nd = 1 + int(next())%4
	for i := 0; i < topo.nd; i++ {
		for j := 0; j < topo.nd; j++ {
			if i == j {
				continue
			}
			b := next()
			if b&3 == 0 {
				continue
			}
			topo.edges = append(topo.edges, fuzzEdge{
				src: i, dst: j,
				look:  Time(1 + b>>2),
				muted: b&3 == 2,
			})
		}
	}
	topo.turn = make([]Time, topo.nd)
	for i := range topo.turn {
		topo.turn[i] = Time(next() % 32)
	}
	topo.roots = make([][]Time, topo.nd)
	for i := range topo.roots {
		rc := 1 + int(next())%3
		for r := 0; r < rc; r++ {
			topo.roots[i] = append(topo.roots[i], Time(next()))
		}
	}
	topo.outs = make([][]int, topo.nd)
	for ei, e := range topo.edges {
		if !e.muted {
			topo.outs[e.src] = append(topo.outs[e.src], ei)
		}
	}
	return topo
}

// fmix is a 64-bit finalizer (murmur3) used to derive event behavior and
// fold execution digests.
func fmix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// fuzzRig executes a fuzzTopo's event tree on either backend. The backend
// supplies time, scheduling, and send primitives; exec is shared so both
// executions run byte-for-byte the same model code.
type fuzzRig struct {
	topo fuzzTopo
	now  func(dom int) Time
	at   func(dom int, t Time, fn func())
	sil  func(dom int, t Time, fn func())
	send func(dom, out int, t Time, fn func())

	// Per-domain accumulators: in shard mode only the owning domain's
	// worker touches index dom, so no locking. chains is order-sensitive
	// within a domain; sums is commutative across everything.
	counts []uint64
	chains []uint64
	sums   []uint64
	events uint64
	rounds uint64
}

func (r *fuzzRig) sum() uint64 {
	var s uint64
	for _, v := range r.sums {
		s += v
	}
	return s
}

// record folds one executed event into the domain's digests.
func (r *fuzzRig) record(dom int, id uint64) {
	v := fmix(id ^ fmix(uint64(dom+1)*0x9e3779b97f4a7c15) ^ uint64(r.now(dom)))
	r.counts[dom]++
	r.sums[dom] += v
	r.chains[dom] = r.chains[dom]*0x100000001b3 ^ v
}

// exec runs one event: fold, then hash-derived children — up to two local
// events, an optional silent leaf, an optional cross-domain send that
// honors the edge lookahead plus the sender's declared turnaround (so the
// turnaround contract holds for arrival-rooted sends by construction).
func (r *fuzzRig) exec(dom int, id uint64, depth int) {
	r.record(dom, id)
	if depth >= 5 {
		return
	}
	t := r.now(dom)
	h := fmix(id + 0x1234)
	for c := 0; c < int(h%3); c++ {
		cid := fmix(id + uint64(c) + 1)
		cdepth := depth + 1
		r.at(dom, t+Time((h>>(8+4*c))%97), func() { r.exec(dom, cid, cdepth) })
	}
	if (h>>20)%4 == 0 {
		sid := fmix(id ^ 0xfeed)
		r.sil(dom, t+Time((h>>24)%31), func() { r.record(dom, sid) })
	}
	if outs := r.topo.outs[dom]; len(outs) > 0 && (h>>32)%3 == 0 {
		oi := int((h >> 40) % uint64(len(outs)))
		e := r.topo.edges[outs[oi]]
		dt := t + e.look + r.topo.turn[dom] + Time((h>>48)%53)
		xid := fmix(id ^ 0xabcdef0123)
		xdepth := depth + 1
		r.send(dom, oi, dt, func() { r.exec(e.dst, xid, xdepth) })
	}
}

// plant schedules the scenario's root events.
func (r *fuzzRig) plant() {
	for dom, times := range r.topo.roots {
		for ri, at := range times {
			id := fmix(uint64(dom)<<32 + uint64(ri) + 0x5eed)
			d, rt := dom, at
			r.at(dom, rt, func() { r.exec(d, id, 0) })
		}
	}
}

func newFuzzRig(topo fuzzTopo) *fuzzRig {
	return &fuzzRig{
		topo:   topo,
		counts: make([]uint64, topo.nd),
		chains: make([]uint64, topo.nd),
		sums:   make([]uint64, topo.nd),
	}
}

// runShardScenario executes the scenario on a Shard with the given worker
// count and returns the filled rig.
func runShardScenario(topo fuzzTopo, workers int) *fuzzRig {
	s := NewShard(workers)
	doms := make([]*Domain, topo.nd)
	for i := range doms {
		doms[i] = s.AddDomain(fmt.Sprintf("d%d", i))
		if topo.turn[i] > 0 {
			doms[i].SetTurnaround(topo.turn[i])
		}
	}
	edges := make([]*Edge, len(topo.edges))
	for i, ge := range topo.edges {
		edges[i] = s.MustConnect(doms[ge.src], doms[ge.dst], ge.look)
		if ge.muted {
			edges[i].Mute()
		}
	}
	r := newFuzzRig(topo)
	r.now = func(dom int) Time { return doms[dom].Kernel().Now() }
	r.at = func(dom int, t Time, fn func()) { doms[dom].Kernel().At(t, fn) }
	r.sil = func(dom int, t Time, fn func()) { doms[dom].Kernel().AtSilent(t, fn) }
	r.send = func(dom, out int, t Time, fn func()) { edges[topo.outs[dom][out]].At(t, fn) }
	r.plant()
	s.Run(0)
	r.events = s.EventsExecuted()
	r.rounds = s.Rounds()
	return r
}

// runFlatScenario executes the scenario on a single serial Kernel: every
// cross-domain send becomes a plain At at the same timestamp.
func runFlatScenario(topo fuzzTopo) *fuzzRig {
	k := NewKernel()
	r := newFuzzRig(topo)
	r.now = func(int) Time { return k.Now() }
	r.at = func(_ int, t Time, fn func()) { k.At(t, fn) }
	r.sil = func(_ int, t Time, fn func()) { k.AtSilent(t, fn) }
	r.send = func(_, _ int, t Time, fn func()) { k.At(t, fn) }
	r.plant()
	k.Run(0)
	r.events = k.EventsExecuted()
	return r
}
