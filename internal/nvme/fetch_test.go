package nvme

import (
	"encoding/binary"
	"testing"

	"snacc/internal/obs"
	"snacc/internal/sim"
)

// TestUnfetchedCountMatchesQueues rings SQ doorbells on several I/O queues
// at random times, several SQEs per doorbell, for a few rounds that wrap
// the rings, and checks after every doorbell and every fetched command that
// the device's count of rung-but-unfetched SQEs equals the sum of the
// queues' pending entries. The last round rings doorbells that the fetch
// engine cannot drain at once and resets the controller under them: the
// count must fall to zero with the queues.
func TestUnfetchedCountMatchesQueues(t *testing.T) {
	const (
		pairs  = 4
		depth  = 16
		rounds = 4
	)
	for seed := uint64(1); seed <= 4; seed++ {
		tb := newTestbench(t, func(cfg *Config) { cfg.MaxIOQueuePairs = pairs })
		d := tb.dev
		checks, fetched := 0, 0
		check := func(when string) {
			t.Helper()
			sum := 0
			for _, q := range d.queues {
				if q != nil {
					sum += q.pending()
				}
			}
			if d.unfetched != sum {
				t.Fatalf("seed %d, %s at %v: unfetched = %d, sum of pending = %d", seed, when, d.k.Now(), d.unfetched, sum)
			}
			checks++
		}
		d.SetCmdObserver(func(qid uint16, _ uint16, stage obs.Stage, _ sim.Time) {
			if stage == obs.StageFetched {
				if qid != 0 {
					fetched++
				}
				check("fetch")
			}
		})
		tb.enable()
		var sq, cq [pairs + 1]uint64
		for qid := uint16(1); qid <= pairs; qid++ {
			sq[qid] = tb.host.Alloc(depth*SQESize, PageSize)
			cq[qid] = tb.host.Alloc(depth*CQESize, PageSize)
			if c := tb.admin(Command{Opcode: OpCreateIOCQ, CID: 2 * qid, PRP1: cq[qid],
				CDW10: uint32(qid) | (depth-1)<<16, CDW11: 1}); c.Status != StatusSuccess {
				t.Fatalf("CreateIOCQ %d: %#x", qid, c.Status)
			}
			if c := tb.admin(Command{Opcode: OpCreateIOSQ, CID: 2*qid + 1, PRP1: sq[qid],
				CDW10: uint32(qid) | (depth-1)<<16, CDW11: 1 | uint32(qid)<<16}); c.Status != StatusSuccess {
				t.Fatalf("CreateIOSQ %d: %#x", qid, c.Status)
			}
		}
		check("create")
		buf := tb.host.Alloc(PageSize, PageSize)
		rng := sim.NewRand(seed)
		var tail [pairs + 1]int
		cid := uint16(0)
		ring := func(qid uint16, n int) {
			for i := 0; i < n; i++ {
				cid++
				cmd := Command{Opcode: OpRead, CID: cid, NSID: 1, PRP1: buf}
				tb.host.Mem.Store().WriteBytes(sq[qid]-tb.host.Mem.Base+uint64(tail[qid]*SQESize), cmd.Marshal())
				tail[qid] = (tail[qid] + 1) % depth
			}
			d.doorbell(RegDoorbellBase+8*uint64(qid), binary.LittleEndian.AppendUint32(nil, uint32(tail[qid])))
			check("doorbell")
		}
		for r := 0; r < rounds; r++ {
			// Each queue takes at most depth-1 commands per round, so its CQ
			// never fills before the round's head doorbell frees it.
			for qid := uint16(1); qid <= pairs; qid++ {
				left := depth - 1
				for left > 0 {
					n := 1 + rng.Intn(5)
					if n > left {
						n = left
					}
					left -= n
					qid, n := qid, n
					tb.k.At(tb.k.Now()+sim.Time(rng.Intn(3000)), func() { ring(qid, n) })
				}
			}
			tb.k.Run(0)
			check("drain")
			if want := (r + 1) * pairs * (depth - 1); fetched != want || d.Mode() != ModeHealthy {
				t.Fatalf("seed %d round %d: %d commands fetched, want %d (mode %d)", seed, r, fetched, want, d.Mode())
			}
			for qid := uint16(1); qid <= pairs; qid++ {
				d.doorbell(RegDoorbellBase+8*uint64(qid)+4, binary.LittleEndian.AppendUint32(nil, uint32(tail[qid])))
			}
		}
		// Ring more than MaxFetchReads batches can take, then reset.
		tb.k.At(tb.k.Now()+1, func() {
			for qid := uint16(1); qid <= pairs; qid++ {
				ring(qid, depth-1)
			}
			if d.unfetched == 0 {
				t.Fatalf("seed %d: every SQE fetched before the reset", seed)
			}
			d.regWrite(RegCC, binary.LittleEndian.AppendUint32(nil, 0))
			check("reset")
			if d.unfetched != 0 {
				t.Fatalf("seed %d: unfetched = %d after reset", seed, d.unfetched)
			}
		})
		tb.k.Run(0)
		if want := rounds*pairs*(depth-1) + 2; checks < want {
			t.Fatalf("seed %d: %d checks, want at least %d", seed, checks, want)
		}
	}
}
