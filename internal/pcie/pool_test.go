package pcie

import (
	"testing"

	"snacc/internal/sim"
)

// TestPooledRequestsRecycleZeroed drives reads and writes (a chained burst
// among them) to completion and checks that every recycled request struct
// came back zeroed, keeping only its owner and its bound stage callbacks,
// and that repeating the traffic reuses the structs instead of building
// new ones.
func TestPooledRequestsRecycleZeroed(t *testing.T) {
	k, _, _, dev, _, _ := testFabric(t, DefaultConfig())
	defer k.Close()
	traffic := func() {
		done := 0
		buf := NewPages(0, 3*int(writeGranule))
		defer buf.Release()
		dev.Write(0x1000, 3*writeGranule, buf, func() { done++ })
		dev.Read(0x2000, 64*sim.KiB, NewPages(0, 64*1024), func() { done++ })
		dev.ReadCtrl(0x3000, 64, make([]byte, 64), func() { done++ })
		k.Run(0)
		if done != 3 {
			t.Fatalf("%d of 3 transactions completed", done)
		}
	}
	traffic()
	writes, reads, chunks := len(dev.writeFree), len(dev.readFree), len(dev.chunkFree)
	if writes == 0 || reads == 0 || chunks == 0 {
		t.Fatalf("free lists empty after traffic: %d writes, %d reads, %d chunks", writes, reads, chunks)
	}
	traffic()
	if len(dev.writeFree) != writes || len(dev.readFree) != reads || len(dev.chunkFree) != chunks {
		t.Errorf("repeated traffic grew the free lists: %d/%d/%d -> %d/%d/%d",
			writes, reads, chunks, len(dev.writeFree), len(dev.readFree), len(dev.chunkFree))
	}
	for _, w := range dev.writeFree {
		if w.pt != dev || w.dst != nil || w.addr != 0 || w.n != 0 || w.off != 0 || !w.data.IsNil() || w.fn != nil ||
			!w.released || w.stage.deliver == nil || w.stage.step == nil {
			t.Fatalf("released write request not zeroed: %+v", *w)
		}
	}
	for _, r := range dev.readFree {
		if r.pt != dev || r.dst != nil || r.addr != 0 || r.n != 0 || !r.buf.IsNil() || r.fn != nil || r.gate != nil ||
			r.remaining != 0 || r.off != 0 || r.chunk != 0 || r.pending != 0 || r.finished || !r.released {
			t.Fatalf("released read request not zeroed: %+v", *r)
		}
	}
	for _, c := range dev.chunkFree {
		if c.r != nil || c.addr != 0 || c.off != 0 || c.n != 0 || c.wire != 0 || c.pad != 0 || !c.released || c.stage.land == nil {
			t.Fatalf("released read chunk not zeroed: %+v", *c)
		}
	}
}
