package sim

// Meter accumulates byte counts against simulated time so benchmarks can
// report bandwidth. Start it when the measured transfer begins.
type Meter struct {
	k       *Kernel
	started Time
	bytes   int64
	active  bool
}

// NewMeter returns an unstarted meter on k.
func NewMeter(k *Kernel) *Meter { return &Meter{k: k} }

// Start begins (or restarts) measurement at the current time.
func (m *Meter) Start() {
	m.started = m.k.now
	m.bytes = 0
	m.active = true
}

// Add records n bytes moved.
func (m *Meter) Add(n int64) {
	if m.active {
		m.bytes += n
	}
}

// Bytes returns the bytes recorded since Start.
func (m *Meter) Bytes() int64 { return m.bytes }

// Elapsed returns simulated time since Start.
func (m *Meter) Elapsed() Time { return m.k.now - m.started }

// BytesPerSec returns the measured bandwidth. Zero elapsed time yields 0.
func (m *Meter) BytesPerSec() float64 {
	el := m.Elapsed()
	if el <= 0 {
		return 0
	}
	return float64(m.bytes) / el.Seconds()
}

// GBps returns the measured bandwidth in decimal gigabytes per second, the
// unit the paper reports.
func (m *Meter) GBps() float64 { return m.BytesPerSec() / 1e9 }
