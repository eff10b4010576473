package sim

// Rand is a small, fast, deterministic PRNG (splitmix64) used by every
// stochastic model in the repository. math/rand would also be deterministic
// under a fixed seed, but a self-contained generator keeps the simulation
// immune to stdlib algorithm changes across Go releases and makes the state
// trivially snapshottable.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. Seed zero is remapped so the
// zero value still produces a usable stream.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63n returns a uniform value in [0, n). n must be positive.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *Rand) Intn(n int) int { return int(r.Int63n(int64(n))) }

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Jitter returns base scaled by a uniform factor in [1-frac, 1+frac],
// rounded to whole nanoseconds. It models service-time variance.
func (r *Rand) Jitter(base Time, frac float64) Time {
	if frac <= 0 {
		return base
	}
	f := 1 - frac + 2*frac*r.Float64()
	return Time(float64(base)*f + 0.5)
}
