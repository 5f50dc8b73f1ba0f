package pso

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
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

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A swarm record that claims 4 particles of 2^20 dimensions but holds
// one float fails before it sizes a vector from the claim.
func TestDecodeTruncatedSwarmAllocatesLittle(t *testing.T) {
	rec := []byte{tagState}
	rec = binary.AppendVarint(rec, 0)     // ID
	rec = binary.AppendVarint(rec, 0)     // Iter
	rec = binary.AppendVarint(rec, 4)     // particles
	rec = binary.AppendVarint(rec, 1<<20) // dims
	rec = refFloats(rec, 1)
	var err error
	n := allocated(func() { _, err = DecodeSwarm(rec) })
	if err == nil {
		t.Fatal("truncated swarm record accepted")
	}
	if n >= 64<<10 {
		t.Errorf("truncated swarm record allocated %d B, want < 64 KiB", n)
	}
	best := refFloats(binary.AppendVarint([]byte{tagBest}, 1<<24), 0.5, 1)
	n = allocated(func() { _, _, err = DecodeBest(best) })
	if err == nil {
		t.Fatal("truncated best record accepted")
	}
	if n >= 64<<10 {
		t.Errorf("truncated best record allocated %d B, want < 64 KiB", n)
	}
}

// Honest swarms and bests decode to the bit: re-encoding what was
// decoded gives back the very bytes, NaN payloads and signed zeros
// included.
func TestDecodeBitIdentical(t *testing.T) {
	odd := []float64{math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000abc), math.Inf(-1), math.SmallestNonzeroFloat64}
	withExt := NewSwarm(Rosenbrock, 25, 5, 7, 123)
	withExt.StepMany(Rosenbrock, 123, 3)
	withExt.AbsorbExternal(make([]float64, 25), 0.5)
	quirky := NewSwarm(Sphere, 4, 3, 1, 9)
	copy(quirky.Particles[0].Pos, odd)
	copy(quirky.Particles[2].Vel, odd)
	quirky.BestPos = append([]float64(nil), odd...)
	quirky.AbsorbExternal(odd, math.Copysign(0, -1))
	for name, s := range map[string]*Swarm{
		"plain": NewSwarm(Sphere, 8, 6, 1, 11), "external": withExt, "quirky": quirky, "empty": {ID: 2},
	} {
		enc := EncodeSwarm(s)
		got, err := DecodeSwarm(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(EncodeSwarm(got), enc) {
			t.Errorf("%s: decoded swarm re-encodes differently", name)
		}
	}
	for _, pos := range [][]float64{nil, odd, make([]float64, 250)} {
		enc := EncodeBest(math.Copysign(0, -1), pos)
		val, got, err := DecodeBest(enc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(EncodeBest(val, got), enc) {
			t.Errorf("best of %d dims re-encodes differently", len(pos))
		}
	}
}

// decodeAllocBound is what a decoder may allocate for n input bytes: a
// Particle header is 88 bytes for the 16 bytes of its two values, and
// append growth at most doubles that.
func decodeAllocBound(n int) uint64 { return 32*uint64(n) + 64<<10 }

// FuzzDecodeSwarm: any bytes decode or fail within an allocation bound
// proportional to their length, and whatever decodes re-encodes to a
// fixed point.
func FuzzDecodeSwarm(f *testing.F) {
	f.Add(EncodeSwarm(NewSwarm(Sphere, 3, 2, 0, 1)))
	withExt := NewSwarm(Rosenbrock, 4, 3, 7, 5)
	withExt.AbsorbExternal(make([]float64, 4), 0.5)
	f.Add(EncodeSwarm(withExt))
	f.Add(EncodeSwarm(&Swarm{ID: 2}))
	f.Add(refFloats(binary.AppendVarint(binary.AppendVarint(binary.AppendVarint(binary.AppendVarint([]byte{tagState}, 0), 0), 4), 1<<20), 1))
	f.Add(binary.AppendVarint(binary.AppendVarint(binary.AppendVarint(binary.AppendVarint([]byte{tagState}, 0), 0), 1<<20), 0))
	f.Add([]byte{tagBest})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s *Swarm
		var err error
		if n := allocated(func() { s, err = DecodeSwarm(data) }); n > decodeAllocBound(len(data)) {
			t.Fatalf("%d input bytes allocated %d B", len(data), n)
		}
		if err != nil {
			return
		}
		enc := EncodeSwarm(s)
		again, err := DecodeSwarm(enc)
		if err != nil {
			t.Fatalf("re-encoded swarm does not decode: %v", err)
		}
		if !bytes.Equal(EncodeSwarm(again), enc) {
			t.Fatal("re-encoded swarm is not a fixed point")
		}
	})
}

// FuzzDecodeBest: the same bound and fixed point for best messages.
func FuzzDecodeBest(f *testing.F) {
	f.Add(EncodeBest(0.25, []float64{1.5, -2.5, 3.5}))
	f.Add(EncodeBest(0, nil))
	f.Add(refFloats(binary.AppendVarint([]byte{tagBest}, 1<<24), 0.5, 1))
	f.Add(binary.AppendVarint([]byte{tagBest}, -1))
	f.Add([]byte{tagState})
	f.Fuzz(func(t *testing.T, data []byte) {
		var val float64
		var pos []float64
		var err error
		if n := allocated(func() { val, pos, err = DecodeBest(data) }); n > decodeAllocBound(len(data)) {
			t.Fatalf("%d input bytes allocated %d B", len(data), n)
		}
		if err != nil {
			return
		}
		enc := EncodeBest(val, pos)
		v2, p2, err := DecodeBest(enc)
		if err != nil {
			t.Fatalf("re-encoded best does not decode: %v", err)
		}
		if !bytes.Equal(EncodeBest(v2, p2), enc) {
			t.Fatal("re-encoded best is not a fixed point")
		}
	})
}
