package tensor

import (
	"math"
	"slices"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (SplitMix64). The whole reproduction depends on bit-for-bit determinism
// across runs and engines, so we avoid math/rand's version-dependent
// streams and carry our own.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// gamma is SplitMix64's state increment: draw j (0-based) is the output
// function of seed + (j+1)*gamma, which is what makes the stream
// addressable by position. gammaInv is its inverse modulo 2^64.
const (
	gamma    = 0x9e3779b97f4a7c15
	gammaInv = 0xf1de83e19937733d
)

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	return mix(r.state)
}

// Skip advances the generator past n draws in O(1), as n calls of Uint64
// would.
func (r *RNG) Skip(n uint64) { r.state += n * gamma }

// mix is SplitMix64's output function, a bijection of the state.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unmix inverts mix: each xor-shift is undone by repeating it until the
// shifted bits run out, each multiplication by the constant's inverse.
func unmix(z uint64) uint64 {
	z ^= z>>31 ^ z>>62
	z *= 0x319642b2d24d8ec3
	z ^= z>>27 ^ z>>54
	z *= 0x96de1b173f119089
	return z ^ z>>30 ^ z>>60
}

// Float32 returns a uniform value in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: RNG.Intn with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal variate via Box-Muller.
func (r *RNG) Norm() float32 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return float32(math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2))
}

// FillNormal fills dst with normal variates scaled by std.
func (r *RNG) FillNormal(dst Vec, std float32) {
	for i := range dst {
		dst[i] = r.Norm() * std
	}
}

// NormStream addresses the Norm variates of one seed by position: At(i)
// is the generator NewRNG(seed) becomes after i calls of Norm, reached in
// O(1), so any slice of a seeded weight stream can be derived without
// the draws before it and comes out bit-identical to the sequential fill.
//
// Norm takes two draws per variate except when its first uniform is
// exactly 0 (2^-53 per variate), which it redraws; every later variate
// then sits one draw further on. NewNormStream finds those variates
// ahead of time, so the stride is exact rather than assumed.
type NormStream struct {
	seed    uint64
	redraws []uint64 // variates that took an extra draw, ascending; almost always empty
}

// NewNormStream prepares positions [0, n] of seed's Norm stream.
func NewNormStream(seed, n uint64) NormStream {
	// Float64 is 0 exactly when the 53 bits it keeps are, that is when
	// the draw's output is below 2^11. The output function is a
	// bijection of the state, so each of those 2048 outputs names the
	// one state, and with it the one draw index, that yields it. Every
	// zero adds at most one draw, so n variates end before 2n + 2048.
	var zeros []uint64
	for out := uint64(0); out < 1<<11; out++ {
		if j := (unmix(out)-seed)*gammaInv - 1; j < 2*n+1<<11 {
			zeros = append(zeros, j)
		}
	}
	slices.Sort(zeros)
	s := NormStream{seed: seed}
	for _, z := range zeros {
		// With k redraws behind it, variate v reads its first uniform at
		// draw 2v+k. A zero there is redrawn; a zero read as the second
		// uniform is used as it is.
		k := uint64(len(s.redraws))
		if v := (z - k) / 2; (z-k)%2 == 0 && v < n {
			s.redraws = append(s.redraws, v)
		}
	}
	return s
}

// At returns the generator positioned before variate i.
func (s NormStream) At(i uint64) RNG {
	draws := 2 * i
	for _, v := range s.redraws {
		if v < i {
			draws++
		}
	}
	r := RNG{state: s.seed}
	r.Skip(draws)
	return r
}

// Hash64 mixes a variable number of 64-bit words into a single
// deterministic 64-bit hash (an FNV/SplitMix hybrid). It is the basis of
// the oracle model's context-dependent token streams.
func Hash64(words ...uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, w := range words {
		h ^= w
		h *= 0x100000001b3
		h ^= h >> 29
		h *= 0xbf58476d1ce4e5b9
	}
	h ^= h >> 32
	return h
}
