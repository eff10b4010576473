package sim

// Server is a serializing work chain: each Occupy books d of exclusive time
// after all previously booked work. It models a single CPU core (the "one
// CPU thread running at 100%" the paper attributes to SPDK and the GPU
// variant in §6.3) or any other one-at-a-time execution resource, and
// tracks cumulative busy time so callers can report utilization.
type Server struct {
	k         *Kernel
	busyUntil Time
	busyAccum Time
}

// NewServer returns an idle server.
func NewServer(k *Kernel) *Server { return &Server{k: k} }

// Occupy books d of exclusive time and returns when it completes.
func (s *Server) Occupy(d Time) (done Time) {
	if d < 0 {
		d = 0
	}
	start := s.k.now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	s.busyUntil = start + d
	s.busyAccum += d
	return s.busyUntil
}

// OccupyAnd books d and runs fn when the booked slot completes.
func (s *Server) OccupyAnd(d Time, fn func()) {
	s.k.At(s.Occupy(d), fn)
}

// BusyUntil returns the end of currently booked work.
func (s *Server) BusyUntil() Time { return s.busyUntil }

// BusyTime returns cumulative booked time.
func (s *Server) BusyTime() Time { return s.busyAccum }

// Utilization returns busy time divided by the window since `since`.
func (s *Server) Utilization(since Time) float64 {
	window := s.k.now - since
	if window <= 0 {
		return 0
	}
	u := float64(s.busyAccum) / float64(window)
	if u > 1 {
		u = 1
	}
	return u
}
