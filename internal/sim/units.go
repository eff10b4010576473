package sim

// Size constants. Storage capacities and buffer sizes in this repository use
// binary units (the paper's 4 kB pages are 4096 bytes); reported bandwidths
// use decimal GB/s to match the paper's figures.
const (
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
)

// GBps converts a decimal-gigabyte-per-second figure (the unit used
// throughout the paper) to bytes per second.
func GBps(v float64) float64 { return v * 1e9 }
