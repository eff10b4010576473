package bench

import (
	"testing"

	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// reader is one long-lived process that performs a read of n bytes each
// time it is woken, so a measured read pays for the stack it crosses and
// not for spawning a process.
type reader struct {
	k     *sim.Kernel
	p     *sim.Proc
	reads int
}

func newReader(rig *snaccRig, n int64) *reader {
	r := &reader{k: rig.k}
	r.p = rig.k.Spawn("reader", func(p *sim.Proc) {
		p.SetDaemon(true)
		for {
			p.Park()
			rig.c.Read(p, 0, n)
			r.reads++
		}
	})
	rig.k.Run(0)
	return r
}

// read runs one read to completion.
func (r *reader) read() {
	r.p.Wake()
	r.k.Run(0)
}

// benchmarkStreamerRead measures one full-stack read per iteration: client
// command in, SQE synthesis, controller fetch over the fabric, NAND read,
// DMA into the staging buffer, in-order retirement, and the drain to the PE
// stream. This is the end-to-end cost the kernel and buffer-pool work
// targets; run with -benchmem to watch steady-state allocations.
func benchmarkStreamerRead(b *testing.B, mut func(*streamer.Config), ioBytes int64) {
	rig := buildSNAcc(streamer.URAM, mut, nil)
	defer rig.k.Close()
	r := newReader(rig, ioBytes)
	r.read() // warm the rig (queues created, free lists primed)
	b.SetBytes(ioBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.read()
	}
}

func BenchmarkStreamerRead4K(b *testing.B) { benchmarkStreamerRead(b, nil, 4*sim.KiB) }

func BenchmarkStreamerRead1M(b *testing.B) { benchmarkStreamerRead(b, nil, sim.MiB) }

// BenchmarkStreamerRead4KMultiQueue is the batched multi-queue variant of
// BenchmarkStreamerRead4K: four I/O queue pairs with doorbell coalescing at
// batch 8, so every iteration exercises the chunked round-robin placement,
// the deferred SQ-tail flush, and the batched CQ-head drain. The coalescing
// machinery (recycled doorbell records, preallocated flush callbacks, the
// reused dbSlots slice) must add exactly zero allocations: allocs/op here
// must match a single-queue read of the same 64 KiB. The residue both
// report is the per-read command boxing on the PE streams (the request's
// stream metadata and its piece tracker), not the batched paths.
func BenchmarkStreamerRead4KMultiQueue(b *testing.B) {
	benchmarkStreamerRead(b, func(cfg *streamer.Config) {
		cfg.IOQueues = 4
		cfg.DoorbellBatch = 8
	}, 64*sim.KiB)
}

// TestRead4KAllocBudget pins the allocation budget of a steady-state,
// timing-only 4 KiB read through the whole stack: every event stage on the
// command path (PCIe transactions, NVMe commands, doorbells, CQEs, the
// send stage) runs on recycled structs, so what is left is the per-read
// command metadata. The bound leaves headroom over today's count; a
// closure or channel creeping back onto the path per event breaks it.
func TestRead4KAllocBudget(t *testing.T) {
	const budget = 8
	rig := buildSNAcc(streamer.URAM, nil, nil)
	defer rig.k.Close()
	r := newReader(rig, 4*sim.KiB)
	for i := 0; i < 10; i++ {
		r.read() // prime the free lists and queue rings
	}
	a := testing.AllocsPerRun(200, r.read)
	if a > budget {
		t.Errorf("a steady-state 4 KiB read allocates %.1f times, budget %d", a, budget)
	}
	if r.reads < 200 {
		t.Fatalf("reader completed %d reads, want >= 200", r.reads)
	}
	t.Logf("%.1f allocs per 4 KiB read (budget %d)", a, budget)
}
