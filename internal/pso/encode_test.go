package pso

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// refSwarm and refBest are the append-grown encoders the exact-size
// ones replaced; the wire bytes must not change.
func refFloats(dst []byte, xs ...float64) []byte {
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

func refSwarm(s *Swarm) []byte {
	dims := 0
	if len(s.Particles) > 0 {
		dims = len(s.Particles[0].Pos)
	}
	out := []byte{tagState}
	out = binary.AppendVarint(out, s.ID)
	out = binary.AppendVarint(out, s.Iter)
	out = binary.AppendVarint(out, int64(len(s.Particles)))
	out = binary.AppendVarint(out, int64(dims))
	for i := range s.Particles {
		p := &s.Particles[i]
		out = refFloats(out, p.Pos...)
		out = refFloats(out, p.Vel...)
		out = refFloats(out, p.PBestPos...)
		out = refFloats(out, p.Val, p.PBestVal)
	}
	out = refFloats(out, s.BestVal)
	out = refFloats(out, s.BestPos[:min(len(s.BestPos), dims)]...)
	if len(s.BestPos) == 0 {
		out = refFloats(out, make([]float64, dims)...)
	}
	if s.ExtPos != nil {
		out = append(out, 1)
		out = refFloats(out, s.ExtVal)
		out = refFloats(out, s.ExtPos...)
	} else {
		out = append(out, 0)
	}
	return out
}

func refBest(val float64, pos []float64) []byte {
	out := binary.AppendVarint([]byte{tagBest}, int64(len(pos)))
	return refFloats(refFloats(out, val), pos...)
}

// checkExact fails unless enc equals want, has no spare capacity, and
// encode allocates exactly once.
func checkExact(t *testing.T, what string, enc, want []byte, encode func() []byte) {
	t.Helper()
	if !bytes.Equal(enc, want) {
		t.Errorf("%s: encoding differs from the reference", what)
	}
	if cap(enc) != len(enc) {
		t.Errorf("%s: cap %d, len %d", what, cap(enc), len(enc))
	}
	if a := testing.AllocsPerRun(20, func() { enc = encode() }); a != 1 {
		t.Errorf("%s: %v allocs, want 1", what, a)
	}
}

// EncodeSwarm and EncodeBest allocate once, at the exact size, and keep
// the wire bytes: with and without external state, for the empty swarm,
// and for a swarm whose BestPos is longer than its particles.
func TestEncodersExactSize(t *testing.T) {
	withExt := NewSwarm(Rosenbrock, 25, 5, 7, 123)
	withExt.StepMany(Rosenbrock, 123, 3)
	withExt.AbsorbExternal(make([]float64, 25), 0.5)
	withExt.ID, withExt.Iter = -300, 1<<40
	empty := &Swarm{ID: 2}
	long := NewSwarm(Sphere, 3, 2, 0, 1)
	long.BestPos = append(long.BestPos, 9, 9)
	for name, s := range map[string]*Swarm{
		"plain": NewSwarm(Sphere, 8, 6, 1, 11), "external": withExt, "empty": empty, "long best": long,
	} {
		checkExact(t, "EncodeSwarm "+name, EncodeSwarm(s), refSwarm(s), func() []byte { return EncodeSwarm(s) })
	}
	for _, pos := range [][]float64{nil, {1.5, -2.5, 3.5}, make([]float64, 250)} {
		checkExact(t, "EncodeBest", EncodeBest(0.25, pos), refBest(0.25, pos), func() []byte { return EncodeBest(0.25, pos) })
	}
}
