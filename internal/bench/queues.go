package bench

import (
	"fmt"

	"snacc/internal/obs"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// QueueSweepRow is one point of the multi-queue submission sweep: 4 KiB
// random-read throughput and latency for one (I/O queue pairs, doorbell
// batch) configuration of the URAM streamer.
type QueueSweepRow struct {
	Queues        int     // I/O queue pairs the submission path shards over
	DoorbellBatch int     // commands coalesced per doorbell write (1 = paper)
	KIOPS         float64 // 4 KiB random-read throughput, thousands of IOPS
	P99Us         float64 // p99 submit→retire read-command latency, µs
	DoorbellRatio float64 // doorbell writes per submitted command (2.0 uncoalesced)
	Speedup       float64 // KIOPS relative to the 1-queue, batch-1 baseline
}

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
// so the sweep replays byte-identically at any parallelism level.
func QueueSweep(queues, batches []int, totalBytes int64) []QueueSweepRow {
	type cell struct{ q, b int }
	var cells []cell
	for _, q := range queues {
		for _, b := range batches {
			cells = append(cells, cell{q, b})
		}
	}
	rows := mapRows(len(cells), func(i int) QueueSweepRow {
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
		row := QueueSweepRow{
			Queues:        c.q,
			DoorbellBatch: c.b,
			P99Us:         float64(obs.NearestRank(readLat, 99)) / 1e3,
		}
		if res.Elapsed > 0 {
			row.KIOPS = float64(res.Bytes/queueSweepIO) / res.Elapsed.Seconds() / 1e3
		}
		if submitted := rig.st.CommandsSubmitted(); submitted > 0 {
			row.DoorbellRatio = float64(rig.st.DoorbellWrites()) / float64(submitted)
		}
		return row
	})
	var base float64
	for _, r := range rows {
		if r.Queues <= 1 && r.DoorbellBatch <= 1 {
			base = r.KIOPS
			break
		}
	}
	for i := range rows {
		if base > 0 {
			rows[i].Speedup = rows[i].KIOPS / base
		}
	}
	return rows
}

// RenderQueueSweep formats the multi-queue submission sweep.
func RenderQueueSweep(rows []QueueSweepRow) Table {
	t := Table{
		Title:   "Queue sweep — URAM 4 KiB random-read IOPS vs I/O queues × doorbell batch",
		Columns: []string{"kIOPS", "p99 µs", "db/cmd", "speedup"},
		Notes: []string{
			"db/cmd = doorbell writes per command: 2.0 uncoalesced (tail ring + head update), approaching 2/batch with coalescing",
			"1q b1 is the paper's single-SQ model; the reorder buffer keeps retirement in order at every point",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, TableRow{
			Label: fmt.Sprintf("%dq b%d", r.Queues, r.DoorbellBatch),
			Cells: []string{
				fmt.Sprintf("%.1f", r.KIOPS),
				fmt.Sprintf("%.1f", r.P99Us),
				fmt.Sprintf("%.3f", r.DoorbellRatio),
				fmt.Sprintf("%.2fx", r.Speedup),
			},
		})
	}
	return t
}
