package nvme

import (
	"snacc/internal/pcie"
	"snacc/internal/sim"
)

// NANDConfig parameterizes the flash backend. The defaults are calibrated
// against the Samsung 990 PRO (2 TB) measurements in the paper: 6.9 GB/s
// sequential reads, sequential writes alternating between 6.24 and
// 5.90 GB/s per firmware banding epoch, and random 4 KiB reads limited by
// die-level parallelism (see EXPERIMENTS.md for the calibration notes).
type NANDConfig struct {
	// Dies is the number of independently addressable flash units
	// (channels × dies per channel contributing to random-read
	// parallelism).
	Dies int
	// ReadLatency is the array read time tR for one page-sized access.
	ReadLatency sim.Time
	// ReadJitterFrac is the uniform ±fraction applied to tR, modeling
	// die-to-die and state-dependent variation.
	ReadJitterFrac float64
	// StripeBytes: accesses at or below this size hit a single die;
	// larger accesses stripe across the array and stream through the
	// aggregate sequential path.
	StripeBytes int64
	// DieReadBW is the per-die streaming rate for small accesses.
	DieReadBW float64
	// SeqReadBW is the aggregate array read bandwidth for striped access.
	SeqReadBW float64
	// ProgramBWFast and ProgramBWSlow are the array program rates in the
	// two firmware banding epochs; EpochBytes of programming flips the
	// epoch. This reproduces the paper's observation that sequential write
	// bandwidth "alternates between 5.90 GB/s and 6.24 GB/s without any
	// intermediate values" (§5.2).
	ProgramBWFast float64
	ProgramBWSlow float64
	EpochBytes    int64
	// WriteBufferBytes is the controller-side staging buffer; writes
	// complete once buffered, and the buffer drains at the program rate.
	WriteBufferBytes int64
	// Seed feeds the deterministic jitter PRNG.
	Seed uint64
}

// DefaultNANDConfig returns the calibrated 990 PRO profile.
func DefaultNANDConfig() NANDConfig {
	return NANDConfig{
		Dies:             40,
		ReadLatency:      21 * sim.Microsecond,
		ReadJitterFrac:   0.25,
		StripeBytes:      16 * sim.KiB,
		DieReadBW:        1.2e9,
		SeqReadBW:        sim.GBps(6.9),
		ProgramBWFast:    sim.GBps(6.24),
		ProgramBWSlow:    sim.GBps(5.90),
		EpochBytes:       sim.GiB,
		WriteBufferBytes: 64 * sim.MiB,
		Seed:             0x990990,
	}
}

// NAND is the flash array plus controller-side write buffer.
type NAND struct {
	k   *sim.Kernel
	cfg NANDConfig
	rng *sim.Rand

	dieBusy []sim.Time
	seqRead *sim.Pipe

	// Write buffer admission (bytes) with FIFO waiters.
	bufAvail int64
	bufQ     []nandBufWaiter

	// Program pipeline.
	programBusyUntil sim.Time
	bytesProgrammed  int64
	outstandingProg  int
	flushWaiters     []func()

	// OnEpochChange fires when the banding epoch flips; the device uses it
	// to adjust its PCIe fetch pacing (§5.2's alternating bandwidth).
	OnEpochChange func(slow bool)
	epochSlow     bool

	store *pcie.SparseMem

	// Stats.
	dieReads, stripedReads, programs int64
}

// NewNAND builds a flash backend.
func NewNAND(k *sim.Kernel, cfg NANDConfig) *NAND {
	if cfg.Dies <= 0 {
		panic("nvme: NAND needs at least one die")
	}
	return &NAND{
		k:        k,
		cfg:      cfg,
		rng:      sim.NewRand(cfg.Seed),
		dieBusy:  make([]sim.Time, cfg.Dies),
		seqRead:  sim.NewPipe(k, cfg.SeqReadBW, 0),
		bufAvail: cfg.WriteBufferBytes,
		store:    pcie.NewSparseMem(),
	}
}

type nandBufWaiter struct {
	n  int64
	fn func()
}

// Config returns the NAND configuration.
func (nd *NAND) Config() NANDConfig { return nd.cfg }

// Store exposes the media content store (byte offset = LBA × LBA size).
func (nd *NAND) Store() *pcie.SparseMem { return nd.store }

// EpochSlow reports whether the current banding epoch is the slow one.
func (nd *NAND) EpochSlow() bool { return nd.epochSlow }

// DieReads, StripedReads and Programs report operation counts.
func (nd *NAND) DieReads() int64     { return nd.dieReads }
func (nd *NAND) StripedReads() int64 { return nd.stripedReads }
func (nd *NAND) Programs() int64     { return nd.programs }

// Read retrieves n media bytes starting at byte offset off into dst (unless
// empty), calling done when the data has left the array. dst snapshots the
// media at issue, sharing its pages. Small accesses occupy a single die
// (queueing behind other accesses to the same die — the source of the
// out-of-order completion the paper's random-read experiment exercises);
// large accesses stripe across the array.
func (nd *NAND) Read(off uint64, n int64, dst pcie.Payload, done func()) {
	nd.store.Share(off, dst)
	if n <= nd.cfg.StripeBytes {
		nd.dieReads++
		die := int((off / uint64(nd.cfg.StripeBytes))) % nd.cfg.Dies
		start := nd.k.Now()
		if nd.dieBusy[die] > start {
			start = nd.dieBusy[die]
		}
		svc := nd.rng.Jitter(nd.cfg.ReadLatency, nd.cfg.ReadJitterFrac) +
			sim.TransferTime(n, nd.cfg.DieReadBW)
		nd.dieBusy[die] = start + svc
		nd.k.At(nd.dieBusy[die], done)
		return
	}
	nd.stripedReads++
	// Striped: pay tR once, then stream through the aggregate read path.
	tr := nd.rng.Jitter(nd.cfg.ReadLatency, nd.cfg.ReadJitterFrac)
	ready := nd.seqRead.Reserve(n) + tr
	nd.k.At(ready, done)
}

// ReserveBuffer admits n bytes into the write buffer, calling fn once space
// is available. Admission is FIFO.
func (nd *NAND) ReserveBuffer(n int64, fn func()) {
	if n > nd.cfg.WriteBufferBytes {
		panic("nvme: write larger than the entire write buffer")
	}
	if len(nd.bufQ) == 0 && nd.bufAvail >= n {
		nd.bufAvail -= n
		fn()
		return
	}
	nd.bufQ = append(nd.bufQ, nandBufWaiter{n: n, fn: fn})
}

func (nd *NAND) releaseBuffer(n int64) {
	nd.bufAvail += n
	for len(nd.bufQ) > 0 && nd.bufAvail >= nd.bufQ[0].n {
		w := nd.bufQ[0]
		nd.bufQ = nd.bufQ[1:]
		nd.bufAvail -= w.n
		w.fn()
	}
}

// Program schedules n buffered bytes (content data, may be empty) at media
// offset off for programming. The media store installs data's pages by
// reference at the call. The reserved buffer space is released when the
// array absorbs the data. Call after ReserveBuffer granted the space.
func (nd *NAND) Program(off uint64, n int64, data pcie.Payload) {
	nd.store.Install(off, data)
	nd.programs++
	rate := nd.cfg.ProgramBWFast
	if nd.epochSlow {
		rate = nd.cfg.ProgramBWSlow
	}
	start := nd.k.Now()
	if nd.programBusyUntil > start {
		start = nd.programBusyUntil
	}
	nd.programBusyUntil = start + sim.TransferTime(n, rate)
	nd.outstandingProg++
	nd.bytesProgrammed += n
	if nd.cfg.EpochBytes > 0 {
		slow := (nd.bytesProgrammed/nd.cfg.EpochBytes)%2 == 1
		if slow != nd.epochSlow {
			nd.epochSlow = slow
			if nd.OnEpochChange != nil {
				nd.OnEpochChange(slow)
			}
		}
	}
	nd.k.At(nd.programBusyUntil, func() {
		nd.releaseBuffer(n)
		nd.outstandingProg--
		if nd.outstandingProg == 0 {
			ws := nd.flushWaiters
			nd.flushWaiters = nil
			for _, w := range ws {
				w()
			}
		}
	})
}

// Flush calls fn once every scheduled program operation has completed.
func (nd *NAND) Flush(fn func()) {
	if nd.outstandingProg == 0 {
		fn()
		return
	}
	nd.flushWaiters = append(nd.flushWaiters, fn)
}
