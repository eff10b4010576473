package sim

import (
	"math/rand"
	"testing"
)

// TestFIFOModel drives a FIFO and a plain slice queue with the same random
// pushes and pops and checks that they agree at every step: contents, head,
// indexing and length. Bursts of pushes force growth at wrapped head
// positions; the ring may only grow when it is pushed past its high-water
// mark, and then only to the next power of two.
func TestFIFOModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var q FIFO[int]
		var ref []int
		next, high := 0, 0
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 5 || len(ref) == 0:
				burst := 1 + rng.Intn(1+trial%9)
				for i := 0; i < burst; i++ {
					before := len(q.buf)
					q.Push(next)
					ref = append(ref, next)
					next++
					if len(q.buf) != before {
						if len(ref) <= high || len(ref) <= before {
							t.Fatalf("trial %d step %d: ring grew %d -> %d at length %d (high-water %d)",
								trial, step, before, len(q.buf), len(ref), high)
						}
						if len(q.buf)&(len(q.buf)-1) != 0 {
							t.Fatalf("ring size %d is not a power of two", len(q.buf))
						}
					}
					high = max(high, len(ref))
				}
			default:
				if got, want := q.Pop(), ref[0]; got != want {
					t.Fatalf("trial %d step %d: Pop = %d, want %d", trial, step, got, want)
				}
				ref = ref[1:]
			}
			if q.Len() != len(ref) {
				t.Fatalf("trial %d step %d: Len = %d, want %d", trial, step, q.Len(), len(ref))
			}
			if len(ref) > 0 {
				if q.Peek() != ref[0] {
					t.Fatalf("trial %d step %d: Peek = %d, want %d", trial, step, q.Peek(), ref[0])
				}
				i := rng.Intn(len(ref))
				if q.At(i) != ref[i] {
					t.Fatalf("trial %d step %d: At(%d) = %d, want %d", trial, step, i, q.At(i), ref[i])
				}
			}
		}
	}
}

// TestFIFOEmptyPanics pins that reading an empty queue, or indexing past
// its end, panics instead of returning a stale slot.
func TestFIFOEmptyPanics(t *testing.T) {
	var q FIFO[int]
	q.Push(1)
	q.Pop()
	for name, fn := range map[string]func(){
		"Pop":   func() { q.Pop() },
		"Peek":  func() { q.Peek() },
		"At(0)": func() { q.At(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an empty FIFO did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestFIFOSteadyStateAllocs pins that a queue cycling below its high-water
// mark allocates nothing, and that Pop drops its reference to the value.
func TestFIFOSteadyStateAllocs(t *testing.T) {
	var q FIFO[*int]
	for i := 0; i < 5; i++ {
		q.Push(new(int))
	}
	v := new(int)
	if a := testing.AllocsPerRun(100, func() {
		q.Push(v)
		q.Pop()
	}); a != 0 {
		t.Errorf("push/pop below the high-water mark allocates %.1f times, want 0", a)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still holds a popped value", i)
		}
	}
}

// chanModel is the reference semantics of Chan: a bounded buffer, blocked
// producers with their values, and blocked consumers, each in FIFO order.
type chanModel struct {
	capacity int
	buf      []int
	putq     []int // blocked producer ids; producer i carries value i
	getq     []int // blocked consumer ids
	got      map[int]int
	putDone  map[int]bool
}

// put models Put (block=true) or TryPut by producer id, and reports whether
// the value went in without blocking.
func (m *chanModel) put(id int, block bool) bool {
	if len(m.getq) > 0 && len(m.buf) == 0 {
		m.got[m.getq[0]] = id
		m.getq = m.getq[1:]
		m.putDone[id] = true
		return true
	}
	if len(m.buf) < m.capacity {
		m.buf = append(m.buf, id)
		m.putDone[id] = true
		return true
	}
	if block {
		m.putq = append(m.putq, id)
	}
	return false
}

// get models Get (block=true) or TryGet by consumer id.
func (m *chanModel) get(id int, block bool) (int, bool) {
	if len(m.buf) > 0 {
		v := m.buf[0]
		m.buf = m.buf[1:]
		if len(m.putq) > 0 {
			m.buf = append(m.buf, m.putq[0])
			m.putDone[m.putq[0]] = true
			m.putq = m.putq[1:]
		}
		m.got[id] = v
		return v, true
	}
	if len(m.putq) > 0 {
		v := m.putq[0]
		m.putq = m.putq[1:]
		m.putDone[v] = true
		m.got[id] = v
		return v, true
	}
	if block {
		m.getq = append(m.getq, id)
	}
	return 0, false
}

func (m *chanModel) peek() (int, bool) {
	switch {
	case len(m.buf) > 0:
		return m.buf[0], true
	case len(m.putq) > 0:
		return m.putq[0], true
	}
	return 0, false
}

// TestChanModel runs random Put/TryPut/Get/TryGet/Peek sequences against
// channels of capacity 0 to 4 and checks every step against chanModel:
// which producers have finished, which value each consumer received, Len
// and Peek. Blocking calls run in processes of their own, so producers and
// consumers pile up and drain in both directions, wrapping and growing the
// channel's rings.
func TestChanModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for capacity := 0; capacity <= 4; capacity++ {
		for trial := 0; trial < 40; trial++ {
			k := NewKernel()
			c := NewChan[int](k, capacity)
			m := &chanModel{capacity: capacity, got: map[int]int{}, putDone: map[int]bool{}}
			got := map[int]int{}
			putDone := map[int]bool{}
			ids := 0
			for step := 0; step < 150; step++ {
				id := ids
				ids++
				// Bias toward the side that drains the current backlog
				// every few dozen steps, so queues both build and empty.
				bias := 5
				if (step/25)%2 == 1 {
					bias = 3
				}
				switch op := rng.Intn(10); {
				case op < bias-1:
					m.put(id, true)
					k.Spawn("put", func(p *Proc) {
						p.SetDaemon(true)
						c.Put(p, id)
						putDone[id] = true
					})
				case op < bias:
					if ok := c.TryPut(id); ok != m.put(id, false) {
						t.Fatalf("cap %d trial %d step %d: TryPut = %v, model disagrees", capacity, trial, step, ok)
					} else if ok {
						putDone[id] = true
					}
				case op < 8:
					m.get(id, true)
					k.Spawn("get", func(p *Proc) {
						p.SetDaemon(true)
						got[id] = c.Get(p)
					})
				case op < 9:
					v, ok := c.TryGet()
					mv, mok := m.get(id, false)
					if ok != mok || v != mv {
						t.Fatalf("cap %d trial %d step %d: TryGet = %d,%v, model %d,%v", capacity, trial, step, v, ok, mv, mok)
					}
					if ok {
						got[id] = v
					}
				default:
					v, ok := c.Peek()
					if mv, mok := m.peek(); ok != mok || v != mv {
						t.Fatalf("cap %d trial %d step %d: Peek = %d,%v, model %d,%v", capacity, trial, step, v, ok, mv, mok)
					}
				}
				k.Run(0)
				if c.Len() != len(m.buf) {
					t.Fatalf("cap %d trial %d step %d: Len = %d, model %d", capacity, trial, step, c.Len(), len(m.buf))
				}
				if len(got) != len(m.got) || len(putDone) != len(m.putDone) {
					t.Fatalf("cap %d trial %d step %d: %d gets and %d puts done, model %d and %d",
						capacity, trial, step, len(got), len(putDone), len(m.got), len(m.putDone))
				}
				for cid, v := range m.got {
					if got[cid] != v {
						t.Fatalf("cap %d trial %d step %d: consumer %d got %d, model %d", capacity, trial, step, cid, got[cid], v)
					}
				}
				for pid := range m.putDone {
					if !putDone[pid] {
						t.Fatalf("cap %d trial %d step %d: producer %d still blocked, model finished it", capacity, trial, step, pid)
					}
				}
			}
			k.Close()
		}
	}
}

// TestChanHandoffAllocs pins the allocation-free channel: once the
// consumer's waiter node exists, a zero-capacity round trip (two blocking
// hand-offs each way) and a buffered producer/consumer round trip allocate
// nothing.
func TestChanHandoffAllocs(t *testing.T) {
	for _, capacity := range []int{0, 2} {
		k := NewKernel()
		ping, pong := NewChan[int](k, capacity), NewChan[int](k, capacity)
		k.Spawn("echo", func(p *Proc) {
			p.SetDaemon(true)
			for {
				pong.Put(p, ping.Get(p))
			}
		})
		trips := 0
		pinger := k.Spawn("pinger", func(p *Proc) {
			p.SetDaemon(true)
			for i := 0; ; i++ {
				ping.Put(p, i)
				if pong.Get(p) != i {
					panic("round trip out of order")
				}
				trips++
				p.Park()
			}
		})
		k.Run(0)
		if a := testing.AllocsPerRun(100, func() {
			pinger.Wake()
			k.Run(0)
		}); a != 0 {
			t.Errorf("capacity %d: a channel round trip allocates %.1f times, want 0", capacity, a)
		}
		if trips < 100 {
			t.Fatalf("capacity %d: %d round trips, want >= 100", capacity, trips)
		}
		k.Close()
	}
}

// grantee records the order in which a Gate grants its waiters.
type grantee struct {
	id    int
	order *[]int
}

func (g *grantee) Grant() { *g.order = append(*g.order, g.id) }

// TestGateFIFO pins the gate's contract: free units are granted inside
// Acquire, and each Release hands its unit to the oldest waiter.
func TestGateFIFO(t *testing.T) {
	var order []int
	g := NewGate(2)
	for i := 0; i < 5; i++ {
		g.Acquire(&grantee{id: i, order: &order})
	}
	if len(order) != 2 {
		t.Fatalf("granted %v with 2 free units, want [0 1]", order)
	}
	for i := 0; i < 3; i++ {
		g.Release()
	}
	want := []int{0, 1, 2, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
	g.Release()
	g.Release()
	g.Acquire(&grantee{id: 5, order: &order})
	g.Acquire(&grantee{id: 6, order: &order})
	if len(order) != 7 {
		t.Fatalf("released units were not granted at once: %v", order)
	}
}
