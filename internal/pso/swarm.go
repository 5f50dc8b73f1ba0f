package pso

import (
	"math"

	"repro/internal/prand"
)

// Constriction coefficients from Bratton & Kennedy's "Defining a
// Standard for Particle Swarm Optimization" (cited as [9] in the Mrs
// paper).
const (
	Chi = 0.72984
	C1  = 2.05
	C2  = 2.05
)

// Particle is one PSO particle.
type Particle struct {
	Pos      []float64
	Vel      []float64
	Val      float64
	PBestPos []float64
	PBestVal float64
}

// clone deep-copies a particle.
func (p *Particle) clone() Particle {
	return Particle{
		Pos:      append([]float64(nil), p.Pos...),
		Vel:      append([]float64(nil), p.Vel...),
		Val:      p.Val,
		PBestPos: append([]float64(nil), p.PBestPos...),
		PBestVal: p.PBestVal,
	}
}

// Swarm is a group of particles with a ring neighborhood, optionally
// receiving an external (migrated) best from sibling subswarms.
type Swarm struct {
	// ID distinguishes subswarms; it seeds per-task RNG streams.
	ID int64
	// Iter counts completed outer iterations (drives RNG derivation).
	Iter int64
	// Particles in this swarm.
	Particles []Particle
	// BestPos/BestVal track the best pbest ever seen in this swarm.
	BestPos []float64
	BestVal float64
	// ExtPos/ExtVal hold the best value received from neighbor
	// subswarms (the Apiary migration channel). ExtVal is +Inf when
	// nothing has arrived.
	ExtPos []float64
	ExtVal float64
}

// NewSwarm initializes a swarm of n particles in f's init region using
// the deterministic stream Random(seed, id, "init"). The same (seed,
// id) always produces the same swarm, in any execution mode.
func NewSwarm(f Function, dims, n int, id int64, seed uint64) *Swarm {
	rng := prand.Random(seed, uint64(id), 0xA11CE)
	s := &Swarm{
		ID:      id,
		BestVal: math.Inf(1),
		ExtVal:  math.Inf(1),
	}
	vspan := f.Upper - f.Lower
	for i := 0; i < n; i++ {
		p := Particle{
			Pos:      make([]float64, dims),
			Vel:      make([]float64, dims),
			PBestPos: make([]float64, dims),
		}
		for d := 0; d < dims; d++ {
			p.Pos[d] = rng.Float64Range(f.InitLower, f.InitUpper)
			// Standard half-diameter velocity init.
			p.Vel[d] = rng.Float64Range(-vspan/2, vspan/2)
		}
		p.Val = f.Eval(p.Pos)
		copy(p.PBestPos, p.Pos)
		p.PBestVal = p.Val
		if p.PBestVal < s.BestVal {
			s.BestVal = p.PBestVal
			s.BestPos = append([]float64(nil), p.PBestPos...)
		}
		s.Particles = append(s.Particles, p)
	}
	return s
}

// neighborhoodBest returns the best pbest among particle i's ring
// neighbors (itself, left, right), possibly improved by the external
// migrant best which is injected at particle 0.
func (s *Swarm) neighborhoodBest(i int) ([]float64, float64) {
	n := len(s.Particles)
	bestVal := math.Inf(1)
	var bestPos []float64
	consider := func(pos []float64, val float64) {
		if val < bestVal {
			bestVal = val
			bestPos = pos
		}
	}
	for _, j := range []int{(i - 1 + n) % n, i, (i + 1) % n} {
		consider(s.Particles[j].PBestPos, s.Particles[j].PBestVal)
	}
	if i == 0 && s.ExtPos != nil {
		consider(s.ExtPos, s.ExtVal)
	}
	return bestPos, bestVal
}

// Step advances the swarm one iteration with the constricted update,
// using a stream derived from (seed, swarm id, iteration) so that the
// trajectory is identical in serial and distributed execution.
func (s *Swarm) Step(f Function, seed uint64) {
	var rng prand.MT
	rng.Reseed(seed, uint64(s.ID), uint64(s.Iter)+1)
	n := len(s.Particles)
	// Snapshot neighborhood bests first so the update order does not
	// change the dynamics (synchronous PSO).
	nbPos := make([][]float64, n)
	nbVal := make([]float64, n)
	for i := range s.Particles {
		nbPos[i], nbVal[i] = s.neighborhoodBest(i)
	}
	for i := range s.Particles {
		p := &s.Particles[i]
		for d := range p.Pos {
			r1 := rng.Float64()
			r2 := rng.Float64()
			p.Vel[d] = Chi * (p.Vel[d] +
				C1*r1*(p.PBestPos[d]-p.Pos[d]) +
				C2*r2*(nbPos[i][d]-p.Pos[d]))
			p.Pos[d] += p.Vel[d]
			// Clamp to the domain; zero the velocity component at the
			// wall (standard bound handling).
			if p.Pos[d] < f.Lower {
				p.Pos[d] = f.Lower
				p.Vel[d] = 0
			} else if p.Pos[d] > f.Upper {
				p.Pos[d] = f.Upper
				p.Vel[d] = 0
			}
		}
		p.Val = f.Eval(p.Pos)
		if p.Val < p.PBestVal {
			p.PBestVal = p.Val
			copy(p.PBestPos, p.Pos)
			if p.Val < s.BestVal {
				s.BestVal = p.Val
				s.BestPos = append(s.BestPos[:0], p.Pos...)
			}
		}
	}
	s.Iter++
}

// StepMany advances the swarm k iterations (the subswarm inner loop of
// the Apiary decomposition).
func (s *Swarm) StepMany(f Function, seed uint64, k int) {
	for i := 0; i < k; i++ {
		s.Step(f, seed)
	}
}

// AbsorbExternal records a migrated best from a sibling subswarm.
func (s *Swarm) AbsorbExternal(pos []float64, val float64) {
	if val < s.ExtVal {
		s.ExtVal = val
		s.ExtPos = append([]float64(nil), pos...)
	}
}

// Evaluations returns the number of function evaluations performed so
// far (n particles per iteration plus the initial evaluation).
func (s *Swarm) Evaluations() int64 {
	return int64(len(s.Particles)) * (s.Iter + 1)
}

// clone deep-copies the swarm.
func (s *Swarm) clone() *Swarm {
	c := &Swarm{
		ID:      s.ID,
		Iter:    s.Iter,
		BestPos: append([]float64(nil), s.BestPos...),
		BestVal: s.BestVal,
		ExtPos:  append([]float64(nil), s.ExtPos...),
		ExtVal:  s.ExtVal,
	}
	if s.ExtPos == nil {
		c.ExtPos = nil
	}
	for i := range s.Particles {
		c.Particles = append(c.Particles, s.Particles[i].clone())
	}
	return c
}
