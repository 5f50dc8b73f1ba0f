package pso

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/codec"
)

// Wire tags distinguishing the two value types that flow through the
// PSO MapReduce: full subswarm states and migrated best messages.
const (
	tagState = 0
	tagBest  = 1
)

func putFloat(dst []byte, x float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
}

func putFloats(dst []byte, xs []float64) []byte {
	for _, x := range xs {
		dst = putFloat(dst, x)
	}
	return dst
}

type decoder struct {
	data []byte
	err  error
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data)
	if n <= 0 {
		d.err = fmt.Errorf("pso: truncated varint")
		return 0
	}
	d.data = d.data[n:]
	return v
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.data) < 8 {
		d.err = fmt.Errorf("pso: truncated float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data))
	d.data = d.data[8:]
	return v
}

// floats reads an n-float vector. It sizes nothing from n until the
// bytes behind it are there, so a record that claims more than it holds
// fails before it allocates.
func (d *decoder) floats(n int) []float64 {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.data)/8 {
		d.err = fmt.Errorf("pso: vector of %d floats in %d bytes", n, len(d.data))
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.data[8*i:]))
	}
	d.data = d.data[8*n:]
	return out
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.data) == 0 {
		d.err = fmt.Errorf("pso: truncated byte")
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

// EncodeSwarm serializes a full subswarm state (tagState), in one
// allocation of exactly its size.
func EncodeSwarm(s *Swarm) []byte {
	dims := 0
	if len(s.Particles) > 0 {
		dims = len(s.Particles[0].Pos)
	}
	best := min(len(s.BestPos), dims)
	if len(s.BestPos) == 0 {
		// BestPos always has dims entries once any particle exists;
		// encode zeros for the degenerate empty swarm.
		best = dims
	}
	floats := 1 + best // BestVal, BestPos
	for i := range s.Particles {
		p := &s.Particles[i]
		floats += len(p.Pos) + len(p.Vel) + len(p.PBestPos) + 2
	}
	if s.ExtPos != nil {
		floats += 1 + len(s.ExtPos)
	}
	n := 2 + codec.VarintLen(s.ID) + codec.VarintLen(s.Iter) +
		codec.VarintLen(int64(len(s.Particles))) + codec.VarintLen(int64(dims)) + 8*floats
	out := append(make([]byte, 0, n), tagState)
	out = binary.AppendVarint(out, s.ID)
	out = binary.AppendVarint(out, s.Iter)
	out = binary.AppendVarint(out, int64(len(s.Particles)))
	out = binary.AppendVarint(out, int64(dims))
	for i := range s.Particles {
		p := &s.Particles[i]
		out = putFloats(out, p.Pos)
		out = putFloats(out, p.Vel)
		out = putFloats(out, p.PBestPos)
		out = putFloat(putFloat(out, p.Val), p.PBestVal)
	}
	out = putFloat(out, s.BestVal)
	out = putFloats(out, s.BestPos[:min(len(s.BestPos), dims)])
	for i := len(s.BestPos); i < best; i++ {
		out = putFloat(out, 0)
	}
	if s.ExtPos != nil {
		out = append(out, 1)
		out = putFloat(out, s.ExtVal)
		out = putFloats(out, s.ExtPos)
	} else {
		out = append(out, 0)
	}
	return out
}

// DecodeSwarm parses a tagState payload.
func DecodeSwarm(data []byte) (*Swarm, error) {
	d := &decoder{data: data}
	if tag := d.byte(); tag != tagState {
		if d.err == nil {
			d.err = fmt.Errorf("pso: expected state tag, got %d", tag)
		}
		return nil, d.err
	}
	s := &Swarm{}
	s.ID = d.varint()
	s.Iter = d.varint()
	n := int(d.varint())
	dims := int(d.varint())
	if d.err != nil {
		return nil, d.err
	}
	if n < 0 || n > 1<<20 || dims < 0 || dims > 1<<20 {
		return nil, fmt.Errorf("pso: implausible swarm shape n=%d dims=%d", n, dims)
	}
	for i := 0; i < n; i++ {
		p := Particle{
			Pos:      d.floats(dims),
			Vel:      d.floats(dims),
			PBestPos: d.floats(dims),
		}
		p.Val = d.float()
		p.PBestVal = d.float()
		if d.err != nil {
			return nil, d.err
		}
		s.Particles = append(s.Particles, p)
	}
	s.BestVal = d.float()
	s.BestPos = d.floats(dims)
	if d.byte() == 1 {
		s.ExtVal = d.float()
		s.ExtPos = d.floats(dims)
	} else {
		s.ExtVal = math.Inf(1)
	}
	if d.err != nil {
		return nil, d.err
	}
	return s, nil
}

// EncodeBest serializes a migrated best message (tagBest), in one
// allocation of exactly its size.
func EncodeBest(val float64, pos []float64) []byte {
	n := 1 + codec.VarintLen(int64(len(pos))) + 8*(1+len(pos))
	out := append(make([]byte, 0, n), tagBest)
	out = binary.AppendVarint(out, int64(len(pos)))
	out = putFloat(out, val)
	return putFloats(out, pos)
}

// DecodeBest parses a tagBest payload.
func DecodeBest(data []byte) (float64, []float64, error) {
	d := &decoder{data: data}
	if tag := d.byte(); tag != tagBest {
		if d.err == nil {
			d.err = fmt.Errorf("pso: expected best tag, got %d", tag)
		}
		return 0, nil, d.err
	}
	dims := int(d.varint())
	val := d.float()
	pos := d.floats(dims)
	if d.err != nil {
		return 0, nil, d.err
	}
	return val, pos, nil
}

// ValueTag reports the wire tag of an encoded PSO value.
func ValueTag(data []byte) (byte, error) {
	if len(data) == 0 {
		return 0, fmt.Errorf("pso: empty value")
	}
	return data[0], nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
