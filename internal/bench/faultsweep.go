package bench

import (
	"fmt"
	"slices"

	"snacc/internal/fault"
	"snacc/internal/nvme"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// faultSweepSeed pins the injector's decision stream so the sweep (and the
// determinism tests pinning it) replays byte-identically at any -j.
const faultSweepSeed = 0x5EED

// FaultSweep measures sequential read goodput and retry amplification of the
// URAM variant as the injected NVMe read-error rate grows. Each rate builds a
// fresh rig with a deterministic injector (retryable StatusDataTransferError
// on reads with the given probability), so rows are independent and
// reproducible. The zero-rate row doubles as the no-fault baseline: nothing
// fires and the recovery path stays cold. Each row, labelled by its rate in
// percent, reports the delivered (non-aborted) goodput, the faults the
// injector fired, the error CQEs, retries, watchdog timeouts and aborts the
// streamer counted, and the commands submitted per command retired.
func FaultSweep(ratesPct []float64, totalBytes int64) Table {
	rows := mapRows(len(ratesPct), func(i int) Row {
		rate := ratesPct[i]
		rig := buildSNAcc(streamer.URAM, (*streamer.Config).ArmRetry, nil)
		defer rig.k.Close()
		in := fault.NewInjector(faultSweepSeed)
		if rate > 0 {
			in.Add(fault.Rule{Name: "read-errors", Kind: fault.StatusError,
				Opcode: nvme.OpRead, Probability: rate / 100,
				Status: nvme.StatusDataTransferError})
		}
		in.Attach(rig.dev)
		res := faultSeqRead(rig, 0, totalBytes)
		amp := 1.0
		if rt := rig.st.CommandsRetired(); rt > 0 {
			amp = float64(rig.st.CommandsSubmitted()) / float64(rt)
		}
		return Row{Label: fmt.Sprintf("%.2f%%", rate), Values: []float64{
			res.GBps(), float64(in.Injected()),
			float64(rig.st.CommandErrors()), float64(rig.st.CommandRetries()),
			float64(rig.st.CommandTimeouts()), float64(rig.st.CommandAborts()), amp,
		}}
	})
	return Table{
		Title: "Fault sweep — URAM sequential read goodput vs injected NVMe error rate",
		Columns: slices.Concat([]Column{{"goodput GB/s", gb}},
			cols(count, "inject", "errs", "retry", "tmo", "abort"), []Column{{"amp", gb}}),
		Rows: rows,
		Notes: []string{
			"amp = commands submitted / retired (retry amplification); 1.00 means no resubmissions",
			"invariant: inject == errs == retry + abort — no error completion is silently swallowed",
		},
	}
}

// faultSeqRead measures one large sequential read under fault injection,
// returning the bytes actually delivered and the elapsed time. SeqRead cannot
// be used here: it insists on full delivery and would wait forever for bytes
// an aborted command never produces. ConsumeReadErr instead follows the TLAST
// framing, which aborted pieces preserve via zero-byte flagged packets.
func faultSeqRead(rig *snaccRig, addr uint64, total int64) streamer.PerfResult {
	var res streamer.PerfResult
	rig.measure(func(p *sim.Proc) {
		start := p.Now()
		rig.c.ReadAsync(p, addr, total)
		got, _, _ := rig.c.ConsumeReadErr(p)
		res = streamer.PerfResult{Bytes: got, Elapsed: p.Now() - start}
	})
	return res
}
