package bench

import (
	"fmt"
	"slices"

	"snacc/internal/nvme"
	"snacc/internal/obs"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// LatencyBreakdown runs a sequential write-then-read workload on every
// variant with span tracing enabled and reports the latency distribution of
// each pipeline-stage transition, split by direction — the simulation's
// version of the paper's §5.2 ILA attribution, but as percentiles over every
// command instead of a handful of captured transactions. Each variant runs
// on a private rig (own kernel, own tracer), so rows are deterministic at
// any -j.
func LatencyBreakdown(totalBytes int64) Table {
	vs := []streamer.Variant{streamer.URAM, streamer.OnboardDRAM, streamer.HostDRAM}
	perVariant := mapRows(len(vs), func(i int) []Row {
		v := vs[i]
		rig := buildSNAcc(v, nil, nil)
		defer rig.k.Close()
		// Retain every span: one command per MiB each way, plus slack.
		tr := obs.NewTracer(int(2*totalBytes/sim.MiB) + 16)
		rig.node.Trace(tr)
		rig.measure(func(p *sim.Proc) {
			streamer.SeqWrite(p, rig.c, 0, totalBytes)
			streamer.SeqRead(p, rig.c, 0, totalBytes)
		})
		if tr.Opened() != tr.Closed() {
			panic(fmt.Sprintf("bench: latency rig leaked spans (%d opened, %d closed)",
				tr.Opened(), tr.Closed()))
		}
		spans := tr.Spans()
		var rows []Row
		for _, op := range []string{"write", "read"} {
			var sel []obs.Span
			for _, sp := range spans {
				if sp.Write == (op == "write") && sp.Status == nvme.StatusSuccess {
					sel = append(sel, sp)
				}
			}
			rows = append(rows, LatencyStages(v.String(), op, sel).Rows...)
		}
		return rows
	})
	t := latencyTable()
	t.Rows = slices.Concat(perVariant...)
	return t
}

// LatencyStages reduces an already-traced span set to the per-stage table
// LatencyBreakdown produces, for callers (snacctrace -spans) that ran their
// own workload. Each row, labelled "<variant> <op> <stage>", is the
// distribution of the latency of entering that stage: the commands
// observed, then the p50, p90, p99, p999 and max.
func LatencyStages(variant, op string, spans []obs.Span) Table {
	t := latencyTable()
	bd := obs.NewBreakdown(spans)
	for stg := obs.StageBufReady; stg < obs.NumStages; stg++ {
		h := &bd.Stage[stg]
		if h.Count() == 0 {
			continue
		}
		t.Rows = append(t.Rows, Row{
			Label: fmt.Sprintf("%s %s %s", variant, op, stg),
			Values: []float64{float64(h.Count()),
				float64(h.P50()), float64(h.P90()), float64(h.P99()), float64(h.P999()), float64(h.Max())},
		})
	}
	return t
}

// latencyTable is the latency breakdown's table, without rows.
func latencyTable() Table {
	return Table{
		Title:   "Latency breakdown — per-stage pipeline latency distributions (span tracer)",
		Columns: slices.Concat([]Column{{"n", count}}, cols(duration, "p50", "p90", "p99", "p999", "max")),
		Notes: []string{
			"each row is the latency of entering that stage from the previous recorded stage",
			"stages: buf-ready (staging buffer) → submitted → doorbell → fetched (SQE over PCIe) → transfer (execution) → cqe → retired",
		},
	}
}
