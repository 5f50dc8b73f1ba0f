// Package prand implements the deterministic pseudorandom machinery of
// Mrs (§IV-A of the paper): a from-scratch MT19937-64 Mersenne Twister
// plus the Random(args...) construction that derives an *independent*
// stream for any combination of integer arguments, so that every map or
// reduce task can own a reproducible generator. Identical argument
// tuples yield identical streams in any execution mode, which is what
// makes serial, mock-parallel, and distributed runs of a stochastic
// program produce bit-identical answers.
package prand

import (
	"math"

	"repro/internal/hash"
)

const (
	nn      = 312
	mm      = 156
	matrixA = 0xB5026F5AA96619E9
	upMask  = 0xFFFFFFFF80000000
	lowMask = 0x7FFFFFFF
)

// MT is a 64-bit Mersenne Twister (MT19937-64, Matsumoto & Nishimura).
// It is not safe for concurrent use; each task owns its own instance.
type MT struct {
	state     [nn]uint64
	index     int
	haveSpare bool    // cached second Box-Muller variate present
	spare     float64 // the cached variate
}

// NewMT returns a generator seeded with the canonical single-seed
// initialization.
func NewMT(seed uint64) *MT {
	m := &MT{}
	m.Seed(seed)
	return m
}

// Seed resets the generator state from a single 64-bit seed using the
// reference initialization recurrence.
func (m *MT) Seed(seed uint64) {
	m.state[0] = seed
	for i := uint64(1); i < nn; i++ {
		m.state[i] = 6364136223846793005*(m.state[i-1]^(m.state[i-1]>>62)) + i
	}
	m.index = nn
}

// SeedArray resets the generator from a key array using the reference
// init_by_array64 procedure. This is the entry point used by
// Random(args...): the Mersenne Twister's 312-word state is large
// enough to absorb roughly 300 64-bit arguments without loss, the
// property the paper calls out explicitly.
func (m *MT) SeedArray(key []uint64) {
	m.Seed(19650218)
	i, j := uint64(1), 0
	k := len(key)
	if nn > k {
		k = nn
	}
	for ; k > 0; k-- {
		m.state[i] = (m.state[i] ^ ((m.state[i-1] ^ (m.state[i-1] >> 62)) * 3935559000370003845)) + key[j] + uint64(j)
		i++
		j++
		if i >= nn {
			m.state[0] = m.state[nn-1]
			i = 1
		}
		if j >= len(key) {
			j = 0
		}
	}
	for k = nn - 1; k > 0; k-- {
		m.state[i] = (m.state[i] ^ ((m.state[i-1] ^ (m.state[i-1] >> 62)) * 2862933555777941757)) - i
		i++
		if i >= nn {
			m.state[0] = m.state[nn-1]
			i = 1
		}
	}
	m.state[0] = 1 << 63
	m.index = nn
}

// Uint64 returns the next 64 random bits.
func (m *MT) Uint64() uint64 {
	if m.index >= nn {
		m.generate()
	}
	x := m.state[m.index]
	m.index++
	x ^= (x >> 29) & 0x5555555555555555
	x ^= (x << 17) & 0x71D67FFFEDA60000
	x ^= (x << 37) & 0xFFF7EEE000000000
	x ^= x >> 43
	return x
}

func (m *MT) generate() {
	var x uint64
	for i := 0; i < nn-mm; i++ {
		x = (m.state[i] & upMask) | (m.state[i+1] & lowMask)
		m.state[i] = m.state[i+mm] ^ (x >> 1) ^ ((x & 1) * matrixA)
	}
	for i := nn - mm; i < nn-1; i++ {
		x = (m.state[i] & upMask) | (m.state[i+1] & lowMask)
		m.state[i] = m.state[i+mm-nn] ^ (x >> 1) ^ ((x & 1) * matrixA)
	}
	x = (m.state[nn-1] & upMask) | (m.state[0] & lowMask)
	m.state[nn-1] = m.state[mm-1] ^ (x >> 1) ^ ((x & 1) * matrixA)
	m.index = 0
}

// Float64 returns a uniform float64 in [0, 1) with 53-bit resolution.
func (m *MT) Float64() float64 {
	return float64(m.Uint64()>>11) / (1 << 53)
}

// Float64Range returns a uniform float64 in [lo, hi).
func (m *MT) Float64Range(lo, hi float64) float64 {
	return lo + (hi-lo)*m.Float64()
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
// Rejection sampling removes modulo bias.
func (m *MT) Intn(n int) int {
	if n <= 0 {
		panic("prand: Intn requires n > 0")
	}
	max := ^uint64(0) - ^uint64(0)%uint64(n)
	for {
		v := m.Uint64()
		if v < max {
			return int(v % uint64(n))
		}
	}
}

// NormFloat64 returns a standard normal variate via the polar
// Box-Muller method. The spare value is cached.
func (m *MT) NormFloat64() float64 {
	if m.haveSpare {
		m.haveSpare = false
		return m.spare
	}
	for {
		u := 2*m.Float64() - 1
		v := 2*m.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			f := math.Sqrt(-2 * math.Log(s) / s)
			m.spare = v * f
			m.haveSpare = true
			return u * f
		}
	}
}

// Shuffle permutes the n elements addressed by swap using Fisher-Yates.
func (m *MT) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, m.Intn(i+1))
	}
}

// Perm returns a random permutation of [0, n).
func (m *MT) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	m.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Random constructs an independent generator for the argument tuple.
// This mirrors mrs.MapReduce.random(*args): same arguments -> same
// stream; any difference in arguments (including order and count) ->
// an unrelated stream. The base seed distinguishes programs so two
// different programs using the same task indices do not share streams.
func Random(baseSeed uint64, args ...uint64) *MT {
	m := &MT{}
	m.Reseed(baseSeed, args...)
	return m
}

// Reseed resets m to the stream Random(baseSeed, args...) returns, so a
// caller can derive a stream into a generator it already holds (on its
// stack, say) instead of a fresh heap one. The key is built in a stack
// array for up to six arguments.
func (m *MT) Reseed(baseSeed uint64, args ...uint64) {
	// Feed the full argument tuple through init_by_array so that every
	// argument independently perturbs the 312-word state, then prepend
	// the combined hash for good measure when args is empty.
	var buf [8]uint64
	key := append(buf[:0], baseSeed, hash.CombineSeeds(args...))
	key = append(key, args...)
	m.SeedArray(key)
	m.haveSpare, m.spare = false, 0
}
