package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (splitmix64). Every stochastic element of a simulation draws from one
// RNG seeded by the scenario, so runs are reproducible from the seed.
// The zero value is a valid generator with seed 0.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Seed resets the generator state.
func (r *RNG) Seed(seed uint64) { r.state = seed }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Fork derives an independent generator from r, consuming one draw.
// Forked streams let subsystems (loss, mobility, workload) draw
// independently without interleaving effects.
func (r *RNG) Fork() *RNG { return NewRNG(r.Uint64()) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	// Guard against log(0).
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(1-u)
}

// Duration returns a uniform Time in [lo, hi]. It panics if hi < lo.
func (r *RNG) Duration(lo, hi Time) Time {
	if hi < lo {
		panic("sim: Duration with hi < lo")
	}
	if hi == lo {
		return lo
	}
	return lo + Time(r.Int63n(int64(hi-lo)+1))
}

// ExpDuration returns an exponentially distributed Time with mean m,
// clamped to at least 1 microsecond.
func (r *RNG) ExpDuration(m Time) Time {
	d := Time(r.Exp(float64(m)))
	if d < 1 {
		d = 1
	}
	return d
}
