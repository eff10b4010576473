package bench

import (
	"fmt"

	"snacc/internal/obs"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// queueSweepIO is the sweep's fixed I/O size — the 4 KiB random reads whose
// per-command overheads (retirement FSM serialization, doorbell round trips)
// the multi-queue path amortizes. Large transfers are bandwidth-bound and do
// not move.
const queueSweepIO = 4096

// QueueSweep measures URAM 4 KiB random-read IOPS and p99 command latency
// over the cross product of queue counts and doorbell batches. The (1, 1)
// cell is the paper's single-SQ model; sharding the CQ bookkeeping across
// queues and amortizing doorbell posts over batches lifts the flat
// random-read ceiling of Figure 4b. Rows are independent and deterministic,
// so the sweep replays byte-identically at any parallelism level. Each row,
// labelled "<queues>q b<batch>", reports the throughput in thousands of
// IOPS, the p99 submit→retire read latency, the doorbell writes per
// submitted command (2.0 uncoalesced) and the throughput relative to the
// 1-queue, batch-1 baseline.
func QueueSweep(queues, batches []int, totalBytes int64) Table {
	type cell struct{ q, b int }
	var cells []cell
	for _, q := range queues {
		for _, b := range batches {
			cells = append(cells, cell{q, b})
		}
	}
	rows := mapRows(len(cells), func(i int) Row {
		c := cells[i]
		rig := buildSNAcc(streamer.URAM, func(cfg *streamer.Config) {
			cfg.IOQueues = c.q
			cfg.DoorbellBatch = c.b
		}, nil)
		defer rig.k.Close()
		// Retain every command's span: the p99 is an exact nearest rank
		// over all of them. Tracing schedules no events, so the traced rig
		// runs the same timeline as an untraced one.
		tr := obs.NewTracer(int(totalBytes / queueSweepIO))
		rig.node.Trace(tr)
		var res streamer.PerfResult
		rig.measure(func(p *sim.Proc) {
			res = streamer.RandRead(p, rig.c, 64*sim.GiB, totalBytes, queueSweepIO, 42)
		})
		if tr.Dropped() > 0 {
			panic(fmt.Sprintf("bench: queue sweep dropped %d spans", tr.Dropped()))
		}
		var readLat []sim.Time
		for _, sp := range tr.Spans() {
			if !sp.Write {
				readLat = append(readLat, sp.Stages[obs.StageRetired]-sp.Stages[obs.StageSubmitted])
			}
		}
		var kiops, dbRatio float64
		if res.Elapsed > 0 {
			kiops = float64(res.Bytes/queueSweepIO) / res.Elapsed.Seconds() / 1e3
		}
		if submitted := rig.st.CommandsSubmitted(); submitted > 0 {
			dbRatio = float64(rig.st.DoorbellWrites()) / float64(submitted)
		}
		return Row{Label: fmt.Sprintf("%dq b%d", c.q, c.b), Values: []float64{
			kiops, float64(obs.NearestRank(readLat, 99)) / 1e3, dbRatio, 0,
		}}
	})
	var base float64
	for i, c := range cells {
		if c.q <= 1 && c.b <= 1 {
			base = rows[i].Values[0]
			break
		}
	}
	for i := range rows {
		if base > 0 {
			rows[i].Values[3] = rows[i].Values[0] / base
		}
	}
	return Table{
		Title:   "Queue sweep — URAM 4 KiB random-read IOPS vs I/O queues × doorbell batch",
		Columns: []Column{{"kIOPS", tenth}, {"p99 µs", tenth}, {"db/cmd", fixed(3)}, {"speedup", ratio}},
		Rows:    rows,
		Notes: []string{
			"db/cmd = doorbell writes per command: 2.0 uncoalesced (tail ring + head update), approaching 2/batch with coalescing",
			"1q b1 is the paper's single-SQ model; the reorder buffer keeps retirement in order at every point",
		},
	}
}
