package bench

import (
	"snacc/internal/fault"
	"snacc/internal/nvme"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// faultSweepSeed pins the injector's decision stream so the sweep (and the
// determinism tests pinning it) replays byte-identically at any -j.
const faultSweepSeed = 0x5EED

// FaultSweepRow is one point of the fault-injection sweep: sequential read
// goodput and recovery accounting at a given injected read-error rate.
type FaultSweepRow struct {
	RatePct       float64 // injected read-error probability, percent
	GoodputGB     float64 // delivered (non-aborted) bytes / elapsed, GB/s
	Injected      int64   // faults the injector fired
	Errors        int64   // error CQEs observed by the streamer
	Retries       int64   // bounded resubmissions
	Timeouts      int64   // watchdog deadline expirations
	Aborts        int64   // commands failed after exhausting retries
	Amplification float64 // commands submitted / commands retired
}

// FaultSweep measures sequential read goodput and retry amplification of the
// URAM variant as the injected NVMe read-error rate grows. Each rate builds a
// fresh rig with a deterministic injector (retryable StatusDataTransferError
// on reads with the given probability), so rows are independent and
// reproducible. The zero-rate row doubles as the no-fault baseline: nothing
// fires and the recovery path stays cold.
func FaultSweep(ratesPct []float64, totalBytes int64) []FaultSweepRow {
	return mapRows(len(ratesPct), func(i int) FaultSweepRow {
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
		return FaultSweepRow{
			RatePct:       rate,
			GoodputGB:     res.GBps(),
			Injected:      in.Injected(),
			Errors:        rig.st.CommandErrors(),
			Retries:       rig.st.CommandRetries(),
			Timeouts:      rig.st.CommandTimeouts(),
			Aborts:        rig.st.CommandAborts(),
			Amplification: amp,
		}
	})
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
