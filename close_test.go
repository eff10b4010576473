package snacc

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// settle collects garbage until finished goroutines are gone and returns
// the goroutine count and live heap bytes. want is the goroutine count to
// wait for; the wait is bounded.
func settle(want int) (goroutines int, heap uint64) {
	var ms runtime.MemStats
	for i := 0; i < 100; i++ {
		runtime.GC()
		runtime.GC() // a second cycle empties the sync.Pool victim caches
		if goroutines = runtime.NumGoroutine(); goroutines <= want {
			break
		}
		time.Sleep(time.Millisecond)
	}
	runtime.ReadMemStats(&ms)
	return goroutines, ms.HeapAlloc
}

// TestSystemCloseFreesSystems pins that a closed System leaves nothing
// behind: 50 build/Execute/Close cycles keep the goroutine count at its
// baseline and the live heap flat, for a single card and for a 3-node
// cluster. Without Close every discarded system keeps its suspended
// service processes, and with them the whole model, alive.
func TestSystemCloseFreesSystems(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"card", Options{Variant: URAM}},
		{"cluster", Options{Cluster: &ClusterOptions{Nodes: 3, Replication: 2, Quorum: 1}}},
	}
	want := bytes.Repeat([]byte{0x5a, 0xc3}, 2048)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cycle := func() {
				sys := MustNewSystem(tc.opts)
				sys.Execute(func(h *Handle) {
					check(t, h.WriteErr(0, want))
					if got := mustRead(t, h, 0, int64(len(want))); !bytes.Equal(got, want) {
						t.Error("round trip corrupted data")
					}
				})
				sys.Close()
			}
			cycle() // warm the process-wide pools and caches
			g0, h0 := settle(runtime.NumGoroutine())
			for i := 0; i < 50; i++ {
				cycle()
			}
			g, h := settle(g0)
			if g > g0 {
				t.Errorf("goroutines grew from %d to %d over 50 closed systems", g0, g)
			}
			// A leaked system holds far more than this; the slack absorbs
			// allocator and runtime bookkeeping noise.
			const slack = 256 << 10
			if h > h0+slack {
				t.Errorf("live heap grew from %d to %d bytes over 50 closed systems", h0, h)
			}
		})
	}
}

// TestSystemClosedSurface pins the closed-system contract: transfers and
// the workload drivers return an error, Execute runs its function without
// simulating, Serve reports an error, and statistics stay readable.
func TestSystemClosedSurface(t *testing.T) {
	sys := MustNewSystem(Options{Variant: URAM, Serve: &ServeOptions{Clients: 4, Requests: 8}})
	var leaked *Handle
	sys.Execute(func(h *Handle) {
		check(t, h.WriteErr(0, make([]byte, 512)))
		leaked = h
	})
	before := sys.Stats()
	sys.Close()
	sys.Close() // idempotent

	ran := false
	sys.Execute(func(h *Handle) {
		ran = true
		now := h.Now()
		h.Sleep(1000)
		if h.Now() != now {
			t.Error("Sleep advanced a closed system's clock")
		}
		if err := h.WriteErr(0, make([]byte, 512)); err == nil {
			t.Error("WriteErr on a closed system succeeded")
		}
		if _, err := h.ReadErr(0, 512); err == nil {
			t.Error("ReadErr on a closed system succeeded")
		}
		if err := h.ReadTimed(0, 512); err == nil {
			t.Error("ReadTimed on a closed system succeeded")
		}
		if err := h.TenantWrite(0, 0, make([]byte, 512)); err == nil {
			t.Error("TenantWrite on a closed system succeeded")
		}
	})
	if !ran {
		t.Error("Execute on a closed system did not run its function")
	}
	if err := leaked.WriteTimed(0, 512); err == nil {
		t.Error("a handle kept from before Close still transfers")
	}
	leaked.Sleep(10)
	if _, err := sys.Serve(); err == nil {
		t.Error("Serve on a closed system succeeded")
	}
	if _, err := sys.RunWorkload(DefaultWorkload()); err == nil {
		t.Error("RunWorkload on a closed system succeeded")
	}
	if after := sys.Stats(); after.CommandsRetired != before.CommandsRetired {
		t.Errorf("Stats changed across Close: %d -> %d commands retired", before.CommandsRetired, after.CommandsRetired)
	}
}
