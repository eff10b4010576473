package bench

import (
	"fmt"

	"snacc/internal/fault"
	"snacc/internal/nvme"
	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
)

// CrashSweepRow is one point of the controller-crash sweep: sequential read
// goodput and recovery-ladder accounting when the controller crashes every
// Nth executed command.
type CrashSweepRow struct {
	CrashEveryN int64   // injected crash period in commands; 0 = baseline
	GoodputGB   float64 // delivered bytes / elapsed, GB/s
	Crashes     int64   // controller crashes the device recorded
	Trips       int64   // circuit-breaker trips
	Resets      int64   // controller resets issued
	Replayed    int64   // in-flight commands replayed after resets
	MTTRUs      float64 // mean time from trip to resumed submission, µs
	Aborts      int64   // commands failed terminally (0 when recovery works)
}

// CrashSweep measures URAM sequential-read goodput and mean time to recover
// as the injected controller-crash rate grows. Each row builds a fresh rig
// whose controller fatally crashes (CSTS.CFS, no fetches, no completions)
// every Nth executed command; the Streamer's breaker detects it via the
// status poll, resets the controller, and replays the in-flight window.
// Rows are independent and deterministic, so the sweep replays
// byte-identically at any parallelism level. N must be 0 or >= 2: a
// controller that crashes at every command never completes one.
func CrashSweep(everyN []int64, totalBytes int64) []CrashSweepRow {
	return mapRows(len(everyN), func(i int) CrashSweepRow {
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
		return CrashSweepRow{
			CrashEveryN: n,
			GoodputGB:   res.GBps(),
			Crashes:     rig.dev.ControllerCrashes(),
			Trips:       rig.st.BreakerTrips(),
			Resets:      rig.st.ControllerResets(),
			Replayed:    rig.st.CommandsReplayed(),
			MTTRUs:      mttr,
			Aborts:      rig.st.CommandAborts(),
		}
	})
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

// StripedDegradedRow summarizes a striped set losing one member mid-stream.
type StripedDegradedRow struct {
	Members        int     // striped set size
	DeadMember     int     // member that died (-1: none)
	WriteGB        float64 // aggregate write goodput across the episode, GB/s
	DegradedWrites int64   // stripe writes failed against the dead member
	DegradedReads  int64   // stripe reads failed against the dead member
	SurvivorBytes  int64   // bytes readable from surviving members afterwards
}

// StripedDegraded demonstrates degraded multi-SSD operation: members SSDs
// consolidated into one address space, with member 1's controller removed
// partway through a striped write. The dead member's stripes fail with
// attributed errors while the survivors keep streaming; afterwards every
// surviving stripe reads back.
func StripedDegraded(members int, totalBytes int64) StripedDegradedRow {
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
	row := StripedDegradedRow{Members: members, DeadMember: -1}
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
				row.SurvivorBytes += sim.MiB
			}
		}
		if dead := s.DeadMembers(); len(dead) > 0 {
			row.DeadMember = dead[0]
		}
		row.DegradedWrites = s.DegradedWrites()
		row.DegradedReads = s.DegradedReads()
	})
	row.WriteGB = float64(totalBytes) / (end - start).Seconds() / 1e9
	return row
}

// RenderStripedDegraded formats the degraded-operation demo.
func RenderStripedDegraded(r StripedDegradedRow) Table {
	t := Table{
		Title:   "Degraded striping — member 1 surprise-removed mid-stream",
		Columns: []string{"write GB/s", "dead member", "degraded wr", "degraded rd", "survivor MiB"},
		Notes: []string{
			"the dead member's stripes fail with attributed errors; survivors keep streaming",
		},
	}
	t.Rows = append(t.Rows, TableRow{
		Label: fmt.Sprintf("%d SSDs", r.Members),
		Cells: []string{
			gb(r.WriteGB), fmt.Sprintf("%d", r.DeadMember),
			fmt.Sprintf("%d", r.DegradedWrites), fmt.Sprintf("%d", r.DegradedReads),
			fmt.Sprintf("%d", r.SurvivorBytes/sim.MiB),
		},
	})
	return t
}

// RenderCrashSweep formats the controller-crash sweep.
func RenderCrashSweep(rows []CrashSweepRow) Table {
	t := Table{
		Title:   "Crash sweep — URAM sequential read goodput vs controller-crash rate",
		Columns: []string{"goodput GB/s", "crashes", "trips", "resets", "replayed", "MTTR µs", "abort"},
		Notes: []string{
			"MTTR = mean breaker-trip-to-resumed-submission time (detection latency, bounded by the 1 ms status poll, is separate)",
			"abort = 0 means every crashed in-flight window was replayed to completion",
		},
	}
	for _, r := range rows {
		label := "none"
		if r.CrashEveryN > 0 {
			label = fmt.Sprintf("every %d", r.CrashEveryN)
		}
		t.Rows = append(t.Rows, TableRow{
			Label: label,
			Cells: []string{
				gb(r.GoodputGB),
				fmt.Sprintf("%d", r.Crashes), fmt.Sprintf("%d", r.Trips),
				fmt.Sprintf("%d", r.Resets), fmt.Sprintf("%d", r.Replayed),
				fmt.Sprintf("%.1f", r.MTTRUs), fmt.Sprintf("%d", r.Aborts),
			},
		})
	}
	return t
}
