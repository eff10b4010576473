package sim

import "testing"

func TestSpawnFromInsideProc(t *testing.T) {
	k := NewKernel()
	var childRan Time
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(10)
		k.Spawn("child", func(c *Proc) {
			c.Sleep(5)
			childRan = c.Now()
		})
		p.Sleep(100)
	})
	k.Run(0)
	if childRan != 15 {
		t.Fatalf("child ran at %v, want 15", childRan)
	}
}

func TestRunHorizonThenResume(t *testing.T) {
	k := NewKernel()
	var hits []Time
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(100)
			hits = append(hits, p.Now())
		}
	})
	k.Run(250)
	if len(hits) != 2 {
		t.Fatalf("hits before horizon = %d, want 2", len(hits))
	}
	k.Run(0)
	if len(hits) != 4 {
		t.Fatalf("hits after resume = %d, want 4", len(hits))
	}
	if hits[3] != 400 {
		t.Fatalf("final hit at %v, want 400", hits[3])
	}
}

func TestWakeOrderIsFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	procs := make([]*Proc, 3)
	for i := 0; i < 3; i++ {
		i := i
		procs[i] = k.Spawn("w", func(p *Proc) {
			p.Sleep(Time(i)) // deterministic park order 0,1,2
			p.Park()
			order = append(order, i)
		})
	}
	k.Spawn("waker", func(p *Proc) {
		p.Sleep(100)
		// Wake in reverse; resumption order follows wake order.
		procs[2].Wake()
		procs[0].Wake()
		procs[1].Wake()
	})
	k.Run(0)
	if len(order) != 3 || order[0] != 2 || order[1] != 0 || order[2] != 1 {
		t.Fatalf("wake order = %v, want [2 0 1]", order)
	}
}

func TestDoubleWakeIsBenign(t *testing.T) {
	k := NewKernel()
	var wokeAt Time
	target := k.Spawn("t", func(p *Proc) {
		p.Park()
		wokeAt = p.Now()
	})
	k.Spawn("w", func(p *Proc) {
		p.Sleep(10)
		target.Wake()
		target.Wake() // second wake must be a no-op
	})
	k.Run(0)
	if wokeAt != 10 {
		t.Fatalf("woke at %v", wokeAt)
	}
}

func TestEventsExecutedCounts(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 10; i++ {
		k.After(Time(i), func() {})
	}
	k.Run(0)
	if k.EventsExecuted() != 10 {
		t.Fatalf("EventsExecuted = %d, want 10", k.EventsExecuted())
	}
}

func TestProcNameAndKernelAccessors(t *testing.T) {
	k := NewKernel()
	k.Spawn("named", func(p *Proc) {
		if p.name != "named" {
			t.Errorf("name = %q", p.name)
		}
		if p.Kernel() != k {
			t.Error("Kernel accessor wrong")
		}
	})
	k.Run(0)
}

func TestSetDaemonIdempotent(t *testing.T) {
	k := NewKernel()
	k.Spawn("d", func(p *Proc) {
		p.SetDaemon(true)
		p.SetDaemon(true) // no double count
		p.SetDaemon(false)
		p.SetDaemon(true)
	})
	k.Run(0)
	if k.daemons != 1 {
		t.Fatalf("daemons = %d, want 1", k.daemons)
	}
}
