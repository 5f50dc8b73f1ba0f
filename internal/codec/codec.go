// Package codec provides the key/value serializers used by mrs-go.
//
// At the transport level every key and value is a []byte. The Mrs paper
// stores arbitrary Python objects and attaches serializers to datasets;
// the Go analogue is a small set of explicit codecs plus a registry so a
// dataset can carry the *name* of its codec across the wire and the
// receiving side can reconstruct typed values.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
)

// ErrShortData is returned when a decoder is given fewer bytes than the
// encoding requires.
var ErrShortData = errors.New("codec: short data")

// A Codec converts between a Go value and its byte encoding. Encode
// appends to dst and returns the extended slice; Decode parses exactly
// the bytes it is given.
type Codec interface {
	// Name is the registry identifier carried in dataset metadata.
	Name() string
	Encode(dst []byte, v any) ([]byte, error)
	Decode(data []byte) (any, error)
}

// ---------------------------------------------------------------------------
// Bytes codec

// BytesCodec passes []byte through unmodified.
type BytesCodec struct{}

func (BytesCodec) Name() string { return "bytes" }

func (BytesCodec) Encode(dst []byte, v any) ([]byte, error) {
	b, ok := v.([]byte)
	if !ok {
		return nil, fmt.Errorf("codec: bytes codec got %T", v)
	}
	return append(dst, b...), nil
}

func (BytesCodec) Decode(data []byte) (any, error) {
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// ---------------------------------------------------------------------------
// String codec

// StringCodec encodes strings as raw UTF-8 bytes.
type StringCodec struct{}

func (StringCodec) Name() string { return "string" }

func (StringCodec) Encode(dst []byte, v any) ([]byte, error) {
	s, ok := v.(string)
	if !ok {
		return nil, fmt.Errorf("codec: string codec got %T", v)
	}
	return append(dst, s...), nil
}

func (StringCodec) Decode(data []byte) (any, error) {
	return string(data), nil
}

// ---------------------------------------------------------------------------
// Int64 codec

// Int64Codec encodes int64 as 8 big-endian bytes. Big-endian keeps the
// byte ordering of non-negative integers consistent with their numeric
// ordering, which matters for sorted shuffles. Negative values sort
// after positive ones in byte order; use OrderedInt64Codec when full
// numeric ordering is required.
type Int64Codec struct{}

func (Int64Codec) Name() string { return "int64" }

func (Int64Codec) Encode(dst []byte, v any) ([]byte, error) {
	n, ok := toInt64(v)
	if !ok {
		return nil, fmt.Errorf("codec: int64 codec got %T", v)
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(n))
	return append(dst, buf[:]...), nil
}

func (Int64Codec) Decode(data []byte) (any, error) {
	if len(data) != 8 {
		return nil, ErrShortData
	}
	return int64(binary.BigEndian.Uint64(data)), nil
}

// OrderedInt64Codec encodes int64 with the sign bit flipped so that the
// byte ordering equals the numeric ordering across the full range.
type OrderedInt64Codec struct{}

func (OrderedInt64Codec) Name() string { return "oint64" }

func (OrderedInt64Codec) Encode(dst []byte, v any) ([]byte, error) {
	n, ok := toInt64(v)
	if !ok {
		return nil, fmt.Errorf("codec: oint64 codec got %T", v)
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(n)^(1<<63))
	return append(dst, buf[:]...), nil
}

func (OrderedInt64Codec) Decode(data []byte) (any, error) {
	if len(data) != 8 {
		return nil, ErrShortData
	}
	return int64(binary.BigEndian.Uint64(data) ^ (1 << 63)), nil
}

// ---------------------------------------------------------------------------
// Varint codec

// VarintCodec encodes int64 with variable-length zig-zag encoding;
// compact for the small counters that dominate WordCount-style programs.
type VarintCodec struct{}

func (VarintCodec) Name() string { return "varint" }

func (VarintCodec) Encode(dst []byte, v any) ([]byte, error) {
	n, ok := toInt64(v)
	if !ok {
		return nil, fmt.Errorf("codec: varint codec got %T", v)
	}
	return binary.AppendVarint(dst, n), nil
}

func (VarintCodec) Decode(data []byte) (any, error) {
	n, size := binary.Varint(data)
	if size <= 0 || size != len(data) {
		return nil, ErrShortData
	}
	return n, nil
}

// ---------------------------------------------------------------------------
// Float64 codec

// Float64Codec encodes float64 as 8 big-endian IEEE-754 bytes.
type Float64Codec struct{}

func (Float64Codec) Name() string { return "float64" }

func (Float64Codec) Encode(dst []byte, v any) ([]byte, error) {
	f, ok := toFloat64(v)
	if !ok {
		return nil, fmt.Errorf("codec: float64 codec got %T", v)
	}
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(f))
	return append(dst, buf[:]...), nil
}

func (Float64Codec) Decode(data []byte) (any, error) {
	if len(data) != 8 {
		return nil, ErrShortData
	}
	return math.Float64frombits(binary.BigEndian.Uint64(data)), nil
}

// ---------------------------------------------------------------------------
// Float64 slice codec (PSO particle state, numeric vectors)

// Float64SliceCodec encodes []float64 as a varint length followed by
// 8-byte little-endian elements.
type Float64SliceCodec struct{}

func (Float64SliceCodec) Name() string { return "[]float64" }

func (Float64SliceCodec) Encode(dst []byte, v any) ([]byte, error) {
	s, ok := v.([]float64)
	if !ok {
		return nil, fmt.Errorf("codec: []float64 codec got %T", v)
	}
	return appendFloat64Slice(dst, s), nil
}

// appendFloat64Slice appends the encoding of s to dst, growing dst at
// most once, to the exact size.
func appendFloat64Slice(dst []byte, s []float64) []byte {
	n := UvarintLen(uint64(len(s))) + 8*len(s)
	if cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	for _, f := range s {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

func (Float64SliceCodec) Decode(data []byte) (any, error) {
	return DecodeFloat64SliceInto(nil, data)
}

// ---------------------------------------------------------------------------
// Helpers for typed encode/decode without going through any.

// PutUint64 appends v big-endian.
func PutUint64(dst []byte, v uint64) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	return append(dst, buf[:]...)
}

// Uint64 reads a big-endian uint64.
func Uint64(data []byte) (uint64, error) {
	if len(data) < 8 {
		return 0, ErrShortData
	}
	return binary.BigEndian.Uint64(data), nil
}

// EncodeInt64 returns the Int64Codec encoding of n.
func EncodeInt64(n int64) []byte {
	b, _ := Int64Codec{}.Encode(nil, n)
	return b
}

// DecodeInt64 parses an Int64Codec encoding.
func DecodeInt64(data []byte) (int64, error) {
	v, err := Int64Codec{}.Decode(data)
	if err != nil {
		return 0, err
	}
	return v.(int64), nil
}

// EncodeFloat64 returns the Float64Codec encoding of f.
func EncodeFloat64(f float64) []byte {
	b, _ := Float64Codec{}.Encode(nil, f)
	return b
}

// DecodeFloat64 parses a Float64Codec encoding.
func DecodeFloat64(data []byte) (float64, error) {
	v, err := Float64Codec{}.Decode(data)
	if err != nil {
		return 0, err
	}
	return v.(float64), nil
}

// EncodeVarint returns the VarintCodec encoding of n.
func EncodeVarint(n int64) []byte {
	return binary.AppendVarint(nil, n)
}

// DecodeVarint parses a VarintCodec encoding.
func DecodeVarint(data []byte) (int64, error) {
	n, size := binary.Varint(data)
	if size <= 0 || size != len(data) {
		return 0, ErrShortData
	}
	return n, nil
}

// EncodeFloat64Slice returns the Float64SliceCodec encoding of s, in
// one allocation of exactly its size.
func EncodeFloat64Slice(s []float64) []byte {
	return appendFloat64Slice(nil, s)
}

// UvarintLen returns the length of the uvarint encoding of x, as
// binary.AppendUvarint writes it. Encoders use it to allocate their
// output once, at its exact size.
func UvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// VarintLen returns the length of the varint encoding of x, as
// binary.AppendVarint writes it.
func VarintLen(x int64) int {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return UvarintLen(ux)
}

// DecodeFloat64Slice parses a Float64SliceCodec encoding.
func DecodeFloat64Slice(data []byte) ([]float64, error) {
	return DecodeFloat64SliceInto(nil, data)
}

// DecodeFloat64SliceInto parses a Float64SliceCodec encoding into dst's
// storage, growing it only if it is too short, and returns the decoded
// slice. A caller that keeps the result as the next dst decodes
// same-length vectors without allocating.
func DecodeFloat64SliceInto(dst []float64, data []byte) ([]float64, error) {
	n, size := binary.Uvarint(data)
	if size <= 0 {
		return nil, ErrShortData
	}
	data = data[size:]
	if len(data)%8 != 0 || uint64(len(data)/8) != n {
		return nil, ErrShortData
	}
	if dst == nil || cap(dst) < len(data)/8 {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	// Four elements a step: the k-means assign decodes every point
	// here, and a one-element loop's speed hinged on its placement.
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		v, b := dst[i:i+4:i+4], data[8*i:8*i+32:8*i+32]
		v[0] = math.Float64frombits(binary.LittleEndian.Uint64(b[0:]))
		v[1] = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
		v[2] = math.Float64frombits(binary.LittleEndian.Uint64(b[16:]))
		v[3] = math.Float64frombits(binary.LittleEndian.Uint64(b[24:]))
	}
	for ; i < len(dst); i++ {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return dst, nil
}

// ---------------------------------------------------------------------------
// Registry

var (
	regMu    sync.RWMutex
	registry = map[string]Codec{}
)

func init() {
	for _, c := range []Codec{
		BytesCodec{}, StringCodec{}, Int64Codec{}, OrderedInt64Codec{},
		VarintCodec{}, Float64Codec{}, Float64SliceCodec{},
	} {
		MustRegister(c)
	}
}

// Register adds c to the global registry. It fails if the name is taken
// by a different codec.
func Register(c Codec) error {
	regMu.Lock()
	defer regMu.Unlock()
	if _, ok := registry[c.Name()]; ok {
		return fmt.Errorf("codec: %q already registered", c.Name())
	}
	registry[c.Name()] = c
	return nil
}

// MustRegister is Register but panics on error; intended for init-time use.
func MustRegister(c Codec) {
	if err := Register(c); err != nil {
		panic(err)
	}
}

// Lookup returns the codec registered under name.
func Lookup(name string) (Codec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	c, ok := registry[name]
	return c, ok
}

// Names returns the sorted list of registered codec names.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// conversions

func toInt64(v any) (int64, bool) {
	switch n := v.(type) {
	case int64:
		return n, true
	case int:
		return int64(n), true
	case int32:
		return int64(n), true
	case uint32:
		return int64(n), true
	}
	return 0, false
}

func toFloat64(v any) (float64, bool) {
	switch f := v.(type) {
	case float64:
		return f, true
	case float32:
		return float64(f), true
	case int:
		return float64(f), true
	}
	return 0, false
}
