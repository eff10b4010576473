package bench

import (
	"fmt"
	"slices"

	"snacc/internal/fault"
	"snacc/internal/nvme"
	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
)

// CrashSweep measures URAM sequential-read goodput and mean time to recover
// as the injected controller-crash rate grows. Each row builds a fresh rig
// whose controller fatally crashes (CSTS.CFS, no fetches, no completions)
// every Nth executed command; the Streamer's breaker detects it via the
// status poll, resets the controller, and replays the in-flight window.
// Rows are independent and deterministic, so the sweep replays
// byte-identically at any parallelism level. N must be 0 or >= 2: a
// controller that crashes at every command never completes one. Each row,
// labelled "none" or "every N", reports the delivered goodput, the crashes
// the device recorded, the breaker trips, controller resets and replayed
// in-flight commands, the mean trip-to-resumed-submission time, and the
// commands failed terminally (0 when recovery works).
func CrashSweep(everyN []int64, totalBytes int64) Table {
	rows := mapRows(len(everyN), func(i int) Row {
		n := everyN[i]
		if n == 1 {
			panic("bench: CrashSweep period 1 can never make progress")
		}
		rig := buildSNAcc(streamer.URAM, (*streamer.Config).ArmLadder, nil)
		defer rig.k.Close()
		in := fault.NewInjector(faultSweepSeed)
		if n > 0 {
			in.Add(fault.Rule{Name: "ctrl-crash", Kind: fault.CrashCtrl,
				Opcode: fault.OpAny, Nth: n})
		}
		in.Attach(rig.dev)
		res := faultSeqRead(rig, 0, totalBytes)
		mttr := 0.0
		if trips := rig.st.BreakerTrips(); trips > 0 {
			mttr = float64(rig.st.RecoveryTime()) / float64(trips) / 1e3
		}
		label := "none"
		if n > 0 {
			label = fmt.Sprintf("every %d", n)
		}
		return Row{Label: label, Values: []float64{
			res.GBps(), float64(rig.dev.ControllerCrashes()),
			float64(rig.st.BreakerTrips()), float64(rig.st.ControllerResets()),
			float64(rig.st.CommandsReplayed()), mttr, float64(rig.st.CommandAborts()),
		}}
	})
	return Table{
		Title: "Crash sweep — URAM sequential read goodput vs controller-crash rate",
		Columns: slices.Concat([]Column{{"goodput GB/s", gb}},
			cols(count, "crashes", "trips", "resets", "replayed"),
			[]Column{{"MTTR µs", tenth}, {"abort", count}}),
		Rows: rows,
		Notes: []string{
			"MTTR = mean breaker-trip-to-resumed-submission time (detection latency, bounded by the 1 ms status poll, is separate)",
			"abort = 0 means every crashed in-flight window was replayed to completion",
		},
	}
}

// CrashTimeline samples instantaneous sequential-write bandwidth while the
// controller crashes every Nth command — the goodput dips are the
// detect→reset→replay episodes the averaged sweep numbers hide.
func CrashTimeline(everyN int64, totalBytes int64, window sim.Time) []TimelinePoint {
	rig := buildSNAcc(streamer.URAM, (*streamer.Config).ArmLadder, nil)
	defer rig.k.Close()
	in := fault.NewInjector(faultSweepSeed)
	if everyN > 0 {
		in.Add(fault.Rule{Name: "ctrl-crash", Kind: fault.CrashCtrl,
			Opcode: fault.OpAny, Nth: everyN})
	}
	in.Attach(rig.dev)
	var points []TimelinePoint
	done := false
	rig.k.Spawn("sampler", func(p *sim.Proc) {
		var last int64
		for !done {
			p.Sleep(window)
			cur := rig.dev.Port().PayloadRx()
			points = append(points, TimelinePoint{
				At:   p.Now(),
				GBps: float64(cur-last) / window.Seconds() / 1e9,
			})
			last = cur
		}
	})
	rig.measure(func(p *sim.Proc) {
		streamer.SeqWrite(p, rig.c, 0, totalBytes)
		done = true
	})
	return points
}

// StripedDegraded demonstrates degraded multi-SSD operation: members SSDs
// consolidated into one address space, with member 1's controller removed
// partway through a striped write. The dead member's stripes fail with
// attributed errors while the survivors keep streaming; afterwards every
// surviving stripe reads back. The one row reports the aggregate write
// goodput across the episode, the member that died (-1: none), the stripe
// writes and reads failed against it, and the MiB readable from the
// survivors afterwards.
func StripedDegraded(members int, totalBytes int64) Table {
	k := sim.NewKernel()
	node := tapasco.NewNode(k, tapasco.DefaultU280())
	var sts []*streamer.Streamer
	for i := 0; i < members; i++ {
		ssd := node.AddSSD(nvme.DefaultConfig(fmt.Sprintf("ssd%d", i), uint64(ssdBAR)+uint64(i)*0x100000))
		if i == 1 {
			// Surprise-remove member 1 mid-stream: no reset revives it, so
			// the ladder exhausts its resets and declares the member dead.
			in := fault.NewInjector(faultSweepSeed)
			in.Add(fault.Rule{Name: "remove", Kind: fault.RemoveCtrl,
				Opcode: fault.OpAny, Nth: 8, Count: 1})
			in.Attach(ssd.Dev)
		}
		stCfg := streamer.DefaultConfig(fmt.Sprintf("snacc%d", i), 0, streamer.URAM)
		stCfg.ArmLadder()
		sts = append(sts, node.AddStreamer(ssd, stCfg))
	}
	dead, survivor := -1, int64(0)
	var degradedWr, degradedRd int64
	var start, end sim.Time
	runInMain(node, func(p *sim.Proc) {
		s := streamer.NewStriped(k, sts, sim.MiB)
		start = p.Now()
		for off := int64(0); off < totalBytes; off += sim.MiB {
			s.WriteErr(p, uint64(off), sim.MiB, nil) // dead stripes error, survivors land
		}
		end = p.Now()
		for off := int64(0); off < totalBytes; off += sim.MiB {
			if _, err := s.ReadErr(p, uint64(off), sim.MiB); err == nil {
				survivor += sim.MiB
			}
		}
		if d := s.DeadMembers(); len(d) > 0 {
			dead = d[0]
		}
		degradedWr, degradedRd = s.DegradedWrites(), s.DegradedReads()
	})
	return Table{
		Title: "Degraded striping — member 1 surprise-removed mid-stream",
		Columns: slices.Concat([]Column{{"write GB/s", gb}},
			cols(count, "dead member", "degraded wr", "degraded rd", "survivor MiB")),
		Rows: []Row{{Label: fmt.Sprintf("%d SSDs", members), Values: []float64{
			float64(totalBytes) / (end - start).Seconds() / 1e9, float64(dead),
			float64(degradedWr), float64(degradedRd), float64(survivor / sim.MiB),
		}}},
		Notes: []string{
			"the dead member's stripes fail with attributed errors; survivors keep streaming",
		},
	}
}
