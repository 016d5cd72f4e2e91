package sim

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via splitmix64). We avoid math/rand so that the
// stream is fully under our control: experiment reproducibility must not
// depend on the Go release.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from the given seed. Any seed value is
// acceptable, including zero.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed restarts the generator in place on the stream NewRNG(seed) returns,
// so a reused owner reseeds without allocating.
func (r *RNG) Seed(seed uint64) {
	// splitmix64 to spread the seed across the state.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// DeriveSeed maps (base seed, label, trial) to a scenario seed. The fleet
// runner uses it to give every scenario/trial pair of an experiment sweep
// its own deterministic stream: the derivation depends only on the inputs
// (FNV-1a over the label folded with splitmix64 steps), never on execution
// order, so a sweep shards across any number of workers without changing
// any run's randomness.
func DeriveSeed(base uint64, label string, trial int) uint64 {
	// FNV-1a over the label.
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 0x100000001b3
	}
	// Fold base, label hash and trial through splitmix64 finalizers.
	x := base
	for _, v := range [...]uint64{h, uint64(trial) + 1} {
		x += v + 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	if x == 0 {
		// Scenario.normalize treats seed 0 as "use the default"; avoid it.
		x = 0x9e3779b97f4a7c15
	}
	return x
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). Panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method.
	v := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, v)
	if lo < v {
		thresh := -v % v
		for lo < thresh {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, v)
		}
	}
	return int(hi)
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed float with mean 1.
func (r *RNG) ExpFloat64() float64 {
	// Inverse transform; clamp the argument away from 0 to avoid +Inf.
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -math.Log(1 - u)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes elements via the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
