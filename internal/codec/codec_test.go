package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBytesRoundTrip(t *testing.T) {
	f := func(b []byte) bool {
		enc, err := BytesCodec{}.Encode(nil, b)
		if err != nil {
			return false
		}
		dec, err := BytesCodec{}.Decode(enc)
		if err != nil {
			return false
		}
		return bytes.Equal(dec.([]byte), b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesDecodeCopies(t *testing.T) {
	src := []byte("hello")
	dec, err := BytesCodec{}.Decode(src)
	if err != nil {
		t.Fatal(err)
	}
	src[0] = 'X'
	if got := string(dec.([]byte)); got != "hello" {
		t.Errorf("decode aliased input: got %q", got)
	}
}

func TestStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		enc, err := StringCodec{}.Encode(nil, s)
		if err != nil {
			return false
		}
		dec, err := StringCodec{}.Decode(enc)
		return err == nil && dec.(string) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInt64RoundTrip(t *testing.T) {
	f := func(n int64) bool {
		enc := EncodeInt64(n)
		dec, err := DecodeInt64(enc)
		return err == nil && dec == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOrderedInt64Ordering(t *testing.T) {
	f := func(a, b int64) bool {
		ea, _ := OrderedInt64Codec{}.Encode(nil, a)
		eb, _ := OrderedInt64Codec{}.Encode(nil, b)
		cmp := bytes.Compare(ea, eb)
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOrderedInt64RoundTrip(t *testing.T) {
	for _, n := range []int64{math.MinInt64, -1, 0, 1, math.MaxInt64} {
		enc, err := OrderedInt64Codec{}.Encode(nil, n)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := OrderedInt64Codec{}.Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		if dec.(int64) != n {
			t.Errorf("round trip %d -> %d", n, dec)
		}
	}
}

func TestVarintRoundTrip(t *testing.T) {
	f := func(n int64) bool {
		enc := EncodeVarint(n)
		dec, err := DecodeVarint(enc)
		return err == nil && dec == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarintRejectsTrailingBytes(t *testing.T) {
	enc := append(EncodeVarint(5), 0xFF)
	if _, err := DecodeVarint(enc); err == nil {
		t.Error("expected error on trailing bytes")
	}
}

func TestVarintCompactness(t *testing.T) {
	if got := len(EncodeVarint(1)); got != 1 {
		t.Errorf("varint(1) is %d bytes, want 1", got)
	}
}

func TestFloat64RoundTrip(t *testing.T) {
	f := func(x float64) bool {
		enc := EncodeFloat64(x)
		dec, err := DecodeFloat64(enc)
		if err != nil {
			return false
		}
		return dec == x || (math.IsNaN(dec) && math.IsNaN(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, x := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()} {
		dec, err := DecodeFloat64(EncodeFloat64(x))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(dec) != math.Float64bits(x) {
			t.Errorf("round trip %v -> %v", x, dec)
		}
	}
}

func TestFloat64SliceRoundTrip(t *testing.T) {
	f := func(s []float64) bool {
		enc := EncodeFloat64Slice(s)
		dec, err := DecodeFloat64Slice(enc)
		if err != nil || len(dec) != len(s) {
			return false
		}
		for i := range s {
			if math.Float64bits(dec[i]) != math.Float64bits(s[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloat64SliceEmpty(t *testing.T) {
	dec, err := DecodeFloat64Slice(EncodeFloat64Slice(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != 0 {
		t.Errorf("want empty slice, got %v", dec)
	}
}

// refFloat64Slice is the encoding written element by element with
// append, the reference the exact-size encoder must match byte for byte.
func refFloat64Slice(dst []byte, s []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	for _, f := range s {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
	}
	return dst
}

// The []float64 encoders allocate once, at the exact size, and write
// the same bytes as the append-grown reference; the four-a-step decoder
// reads them back whatever the length's remainder.
func TestFloat64SliceExactSize(t *testing.T) {
	var dec []float64
	for _, n := range []int{0, 1, 3, 5, 16, 127, 128, 300} {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)*0.75 - 3
		}
		want := refFloat64Slice(nil, s)
		enc := EncodeFloat64Slice(s)
		if !bytes.Equal(enc, want) {
			t.Errorf("n=%d: EncodeFloat64Slice differs from the reference", n)
		}
		var err error
		if dec, err = DecodeFloat64SliceInto(dec, enc); err != nil || !slices.Equal(dec, s) {
			t.Errorf("n=%d: decoded %v, %v", n, dec, err)
		}
		if cap(enc) != len(enc) {
			t.Errorf("n=%d: EncodeFloat64Slice cap %d, len %d", n, cap(enc), len(enc))
		}
		if a := testing.AllocsPerRun(20, func() { enc = EncodeFloat64Slice(s) }); a != 1 {
			t.Errorf("n=%d: EncodeFloat64Slice %v allocs, want 1", n, a)
		}
		out, err := Float64SliceCodec{}.Encode([]byte("pre"), s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, refFloat64Slice([]byte("pre"), s)) || cap(out) != len(out) {
			t.Errorf("n=%d: Encode after a prefix gave %d bytes (cap %d), want %d", n, len(out), cap(out), len(want)+3)
		}
		room := make([]byte, 0, len(want))
		if a := testing.AllocsPerRun(20, func() { _, _ = Float64SliceCodec{}.Encode(room, s) }); a > 1 {
			t.Errorf("n=%d: Encode into a buffer with room %v allocs, want only the boxing", n, a)
		}
	}
}

func TestVarintLen(t *testing.T) {
	for _, x := range []int64{0, 1, -1, 63, -64, 64, -65, 127, 128, 1 << 20, -(1 << 20), 1<<62 + 5, math.MaxInt64, math.MinInt64} {
		if got, want := VarintLen(x), len(binary.AppendVarint(nil, x)); got != want {
			t.Errorf("VarintLen(%d) = %d, want %d", x, got, want)
		}
		ux := uint64(x)
		if got, want := UvarintLen(ux), len(binary.AppendUvarint(nil, ux)); got != want {
			t.Errorf("UvarintLen(%d) = %d, want %d", ux, got, want)
		}
	}
}

func TestShortDataErrors(t *testing.T) {
	codecs := []Codec{Int64Codec{}, OrderedInt64Codec{}, Float64Codec{}}
	for _, c := range codecs {
		if _, err := c.Decode([]byte{1, 2, 3}); err == nil {
			t.Errorf("%s: expected error on short data", c.Name())
		}
	}
	if _, err := (Float64SliceCodec{}).Decode([]byte{10, 0}); err == nil {
		t.Error("[]float64: expected error on truncated data")
	}
}

func TestTypeMismatchErrors(t *testing.T) {
	cases := []struct {
		c Codec
		v any
	}{
		{BytesCodec{}, "not bytes"},
		{StringCodec{}, 42},
		{Int64Codec{}, "nope"},
		{VarintCodec{}, 1.5},
		{Float64Codec{}, "x"},
		{Float64SliceCodec{}, []int{1}},
	}
	for _, c := range cases {
		if _, err := c.c.Encode(nil, c.v); err == nil {
			t.Errorf("%s: expected type error for %T", c.c.Name(), c.v)
		}
	}
}

func TestEncodeAppends(t *testing.T) {
	prefix := []byte("pre")
	out, err := StringCodec{}.Encode(prefix, "fix")
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "prefix" {
		t.Errorf("Encode did not append: %q", out)
	}
}

func TestRegistryLookup(t *testing.T) {
	for _, name := range []string{"bytes", "string", "int64", "oint64", "varint", "float64", "[]float64"} {
		c, ok := Lookup(name)
		if !ok {
			t.Errorf("codec %q not registered", name)
			continue
		}
		if c.Name() != name {
			t.Errorf("codec %q reports name %q", name, c.Name())
		}
	}
	if _, ok := Lookup("no-such-codec"); ok {
		t.Error("unexpected codec for bogus name")
	}
}

func TestRegisterDuplicate(t *testing.T) {
	if err := Register(StringCodec{}); err == nil {
		t.Error("expected duplicate registration error")
	}
}

func TestNamesSorted(t *testing.T) {
	names := Names()
	if len(names) < 7 {
		t.Fatalf("expected at least 7 registered codecs, got %d", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names not sorted: %q >= %q", names[i-1], names[i])
		}
	}
}

func TestIntConversions(t *testing.T) {
	enc, err := Int64Codec{}.Encode(nil, int(7))
	if err != nil {
		t.Fatal(err)
	}
	n, err := DecodeInt64(enc)
	if err != nil || n != 7 {
		t.Errorf("int conversion failed: %d, %v", n, err)
	}
}

func BenchmarkVarintEncode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		EncodeVarint(int64(i))
	}
}

func BenchmarkFloat64SliceRoundTrip(b *testing.B) {
	s := make([]float64, 250) // Rosenbrock-250 particle dimension
	for i := range s {
		s[i] = float64(i) * 1.5
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := EncodeFloat64Slice(s)
		if _, err := DecodeFloat64Slice(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeFloat64SliceMatchesOneElement: the four-a-step decode gives
// every element bit for bit as the one-element loop it replaced, for
// lengths 0 to 67 and values drawn from NaNs with distinct payloads,
// ±0, ±Inf, subnormals and the extremes of the normal range, into a
// fresh slice and into a reused longer one.
func TestDecodeFloat64SliceMatchesOneElement(t *testing.T) {
	odd := []uint64{
		0x7FF8000000000000, 0x7FF8DEADBEEF0001, 0x7FF0000000000001, 0xFFF4000000C0FFEE,
		0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000, 0xFFF0000000000000,
		0x0000000000000001, 0x800FFFFFFFFFFFFF, 0x000A5A5A5A5A5A5A, 0x7FEFFFFFFFFFFFFF,
		0x0010000000000000, 0xFFEFFFFFFFFFFFFF,
	}
	rng := rand.New(rand.NewSource(40))
	reuse := make([]float64, 80)
	for n := 0; n <= 67; n++ {
		for trial := 0; trial < 20; trial++ {
			bits := make([]uint64, n)
			data := binary.AppendUvarint(nil, uint64(n))
			for i := range bits {
				bits[i] = odd[rng.Intn(len(odd))]
				if rng.Intn(3) == 0 {
					bits[i] = rng.Uint64()
				}
				data = binary.LittleEndian.AppendUint64(data, bits[i])
			}
			for _, dst := range [][]float64{nil, reuse} {
				got, err := DecodeFloat64SliceInto(dst, data)
				if err != nil || len(got) != n {
					t.Fatalf("n=%d: decoded %d values, %v", n, len(got), err)
				}
				for i, want := range bits {
					// The one-element loop's element i.
					ref := math.Float64frombits(binary.LittleEndian.Uint64(data[len(data)-8*n+8*i:]))
					if b := math.Float64bits(got[i]); b != want || b != math.Float64bits(ref) {
						t.Fatalf("n=%d: element %d = %#x, want %#x", n, i, b, want)
					}
				}
			}
		}
	}
}
