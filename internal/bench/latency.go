package bench

import (
	"fmt"

	"snacc/internal/nvme"
	"snacc/internal/obs"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// LatencyRow is one per-stage latency distribution of the latency-breakdown
// rig: where the nanoseconds of a variant's commands go, stage by stage.
type LatencyRow struct {
	Variant string
	Op      string   // "write" or "read"
	Stage   string   // pipeline stage the transition enters
	Count   int64    // commands observed
	P50     sim.Time // transition latency quantiles
	P90     sim.Time
	P99     sim.Time
	P999    sim.Time
	Max     sim.Time
}

// LatencyBreakdown runs a sequential write-then-read workload on every
// variant with span tracing enabled and reports the latency distribution of
// each pipeline-stage transition, split by direction — the simulation's
// version of the paper's §5.2 ILA attribution, but as percentiles over every
// command instead of a handful of captured transactions. Each variant runs
// on a private rig (own kernel, own tracer), so rows are deterministic at
// any -j.
func LatencyBreakdown(totalBytes int64) []LatencyRow {
	vs := []streamer.Variant{streamer.URAM, streamer.OnboardDRAM, streamer.HostDRAM}
	perVariant := mapRows(len(vs), func(i int) []LatencyRow {
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
		var rows []LatencyRow
		for _, op := range []string{"write", "read"} {
			var sel []obs.Span
			for _, sp := range spans {
				if sp.Write == (op == "write") && sp.Status == nvme.StatusSuccess {
					sel = append(sel, sp)
				}
			}
			rows = append(rows, LatencyStages(v.String(), op, sel)...)
		}
		return rows
	})
	var out []LatencyRow
	for _, rows := range perVariant {
		out = append(out, rows...)
	}
	return out
}

// LatencyStages reduces an already-traced span set to per-stage rows, for
// callers (snacctrace -spans) that ran their own workload and want the same
// table LatencyBreakdown produces.
func LatencyStages(variant, op string, spans []obs.Span) []LatencyRow {
	bd := obs.NewBreakdown(spans)
	var rows []LatencyRow
	for stg := obs.StageBufReady; stg < obs.NumStages; stg++ {
		h := &bd.Stage[stg]
		if h.Count() == 0 {
			continue
		}
		rows = append(rows, LatencyRow{
			Variant: variant, Op: op, Stage: stg.String(),
			Count: h.Count(),
			P50:   h.P50(), P90: h.P90(), P99: h.P99(), P999: h.P999(),
			Max: h.Max(),
		})
	}
	return rows
}

// RenderLatencyBreakdown formats the per-stage latency distributions.
func RenderLatencyBreakdown(rows []LatencyRow) Table {
	t := Table{
		Title:   "Latency breakdown — per-stage pipeline latency distributions (span tracer)",
		Columns: []string{"n", "p50", "p90", "p99", "p999", "max"},
		Notes: []string{
			"each row is the latency of entering that stage from the previous recorded stage",
			"stages: buf-ready (staging buffer) → submitted → doorbell → fetched (SQE over PCIe) → transfer (execution) → cqe → retired",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, TableRow{
			Label: fmt.Sprintf("%s %s %s", r.Variant, r.Op, r.Stage),
			Cells: []string{
				fmt.Sprintf("%d", r.Count),
				r.P50.String(), r.P90.String(), r.P99.String(), r.P999.String(),
				r.Max.String(),
			},
		})
	}
	return t
}
