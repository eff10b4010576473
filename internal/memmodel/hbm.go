package memmodel

import (
	"fmt"

	"snacc/internal/pcie"
	"snacc/internal/sim"
)

// HBM models the U280's high-bandwidth memory as independently scheduled
// pseudo-channels with address interleaving — the §7 proposal: "we can
// leverage HBM and distribute data buffers across different HBM controllers
// to maximize parallelism and bandwidth". Because each channel has its own
// controller, a read stream and a write stream landing on different
// channels never pay each other's bus turnaround, unlike the single DDR4
// controller TaPaSCo currently instantiates.
type HBM struct {
	k        *sim.Kernel
	cfg      HBMConfig
	channels []*DRAM
	store    *pcie.SparseMem
}

// HBMConfig parameterizes the stack.
type HBMConfig struct {
	// Channels is the pseudo-channel count (32 on the U280).
	Channels int
	// ChannelBytesPerSec is each channel's bandwidth (~14.4 GB/s).
	ChannelBytesPerSec float64
	// AccessLatency per channel access.
	AccessLatency sim.Time
	// InterleaveBytes is the channel-interleave granule.
	InterleaveBytes int64
	// Size is the total capacity.
	Size int64
}

// DefaultHBMConfig returns the Alveo U280 HBM2 stack profile.
func DefaultHBMConfig() HBMConfig {
	return HBMConfig{
		Channels:           32,
		ChannelBytesPerSec: 14.4e9,
		AccessLatency:      150 * sim.Nanosecond,
		InterleaveBytes:    4 * sim.KiB,
		Size:               8 * sim.GiB,
	}
}

// NewHBM builds the stack.
func NewHBM(k *sim.Kernel, cfg HBMConfig) *HBM {
	if cfg.Channels <= 0 || cfg.InterleaveBytes <= 0 || cfg.Size <= 0 {
		panic("memmodel: invalid HBM config")
	}
	h := &HBM{k: k, cfg: cfg, store: pcie.NewSparseMem()}
	per := cfg.Size / int64(cfg.Channels)
	for i := 0; i < cfg.Channels; i++ {
		h.channels = append(h.channels, NewDRAM(k, DRAMConfig{
			Size:          per,
			BytesPerSec:   cfg.ChannelBytesPerSec,
			AccessLatency: cfg.AccessLatency,
			// Per-channel turnaround exists but, with streams spread
			// across channels, rarely triggers — the point of the design.
			Turnaround:     15 * sim.Nanosecond,
			RowMissPenalty: 20 * sim.Nanosecond,
			RowBytes:       4 * sim.KiB,
		}))
	}
	return h
}

// Size implements Memory.
func (h *HBM) Size() int64 { return h.cfg.Size }

// Store implements Memory.
func (h *HBM) Store() *pcie.SparseMem { return h.store }

// Channels returns the pseudo-channel count.
func (h *HBM) Channels() int { return h.cfg.Channels }

// route maps a global address to (channel, channel-local address).
func (h *HBM) route(addr uint64) (int, uint64) {
	granule := uint64(h.cfg.InterleaveBytes)
	idx := (addr / granule) % uint64(h.cfg.Channels)
	local := (addr/(granule*uint64(h.cfg.Channels)))*granule + addr%granule
	return int(idx), local
}

// access splits [addr, addr+n) at interleave boundaries and dispatches the
// pieces to their channels; done fires when the slowest piece lands.
func (h *HBM) access(write bool, addr uint64, n int64, done func()) {
	if n < 0 || addr+uint64(n) > uint64(h.cfg.Size) {
		panic(fmt.Sprintf("memmodel: HBM access [%#x,+%#x) out of range", addr, n))
	}
	outstanding := 0
	issuedAll := false
	one := func() {
		outstanding--
		if issuedAll && outstanding == 0 {
			done()
		}
	}
	for n > 0 {
		granule := h.cfg.InterleaveBytes - int64(addr%uint64(h.cfg.InterleaveBytes))
		if granule > n {
			granule = n
		}
		ch, local := h.route(addr)
		outstanding++
		if write {
			h.channels[ch].WriteAccess(local, granule, pcie.Payload{}, one)
		} else {
			h.channels[ch].ReadAccess(local, granule, pcie.Payload{}, one)
		}
		addr += uint64(granule)
		n -= granule
	}
	issuedAll = true
	if outstanding == 0 {
		done()
	}
}

// ReadAccess implements Memory.
func (h *HBM) ReadAccess(addr uint64, n int64, dst pcie.Payload, done func()) {
	h.store.Share(addr, dst)
	h.access(false, addr, n, done)
}

// WriteAccess implements Memory.
func (h *HBM) WriteAccess(addr uint64, n int64, data pcie.Payload, done func()) {
	h.store.Install(addr, data)
	h.access(true, addr, n, done)
}
