package kvio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strconv"
	"testing"
)

// Key column encodings of the retired columnar block layout, as its
// header stored them. keyColAuto picked one per block and was never
// stored.
const (
	keyColAuto  = -1
	keyColRaw   = 0
	keyColDict  = 1
	keyColDelta = 2
)

// retiredColumnar returns the stream the retired columnar block writer
// emitted for pairs under the named codec, block size and key column
// encoding. Each block held a first header uvarint of MaxBlockLen+1
// (the old block-kind marker), the record count and key encoding, two
// column segments (uvarint rawLen | uvarint nameLen|name | uvarint
// payloadLen | crc32 LE), then the key and value column payloads, each
// compressed on its own and kept raw when compression did not shrink
// it. Blocks were cut where the row writer cuts them. The writer is
// gone; this copy exists so tests can show readers refuse its output.
func retiredColumnar(pairs []Pair, codecName string, blockSize, keyEnc int) []byte {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	wire := append([]byte(nil), BlockMagic[:]...)
	var keys [][]byte
	var vals []byte
	rowLen := 0
	seg := func(rawLen int, name string, payload []byte) {
		wire = binary.AppendUvarint(wire, uint64(rawLen))
		wire = binary.AppendUvarint(wire, uint64(len(name)))
		wire = append(wire, name...)
		wire = binary.AppendUvarint(wire, uint64(len(payload)))
		wire = binary.LittleEndian.AppendUint32(wire, crc32.ChecksumIEEE(payload))
	}
	flush := func() {
		if len(keys) == 0 {
			return
		}
		enc := keyEnc
		if enc == keyColAuto {
			enc = pickKeyCol(keys)
		}
		keyCol := encodeKeyCol(enc, keys)
		keyPayload, keyName := compressCol(codecName, keyCol)
		valPayload, valName := compressCol(codecName, vals)
		wire = binary.AppendUvarint(wire, MaxBlockLen+1)
		wire = binary.AppendUvarint(wire, uint64(len(keys)))
		wire = binary.AppendUvarint(wire, uint64(enc))
		seg(len(keyCol), keyName, keyPayload)
		seg(len(vals), valName, valPayload)
		wire = append(wire, keyPayload...)
		wire = append(wire, valPayload...)
		keys, vals, rowLen = nil, nil, 0
	}
	for _, p := range pairs {
		keys = append(keys, p.Key)
		vals = binary.AppendUvarint(vals, uint64(len(p.Value)))
		vals = append(vals, p.Value...)
		rowLen += varintLen(len(p.Key)) + len(p.Key) + varintLen(len(p.Value)) + len(p.Value)
		if rowLen >= blockSize {
			flush()
		}
	}
	flush()
	return wire
}

// compressCol is the retired writer's per-column compression (see
// retiredPayload): identity when the codec is identity or compressing
// does not shrink the column.
func compressCol(codec string, raw []byte) ([]byte, string) {
	if codec == identityName {
		return raw, identityName
	}
	if payload := retiredPayload(codec, raw); len(payload) < len(raw) {
		return payload, codec
	}
	return raw, identityName
}

// pickKeyCol is the retired writer's automatic key encoding: dict when
// at most half the keys are distinct and the table pays for itself,
// delta when front coding saves at least 1/16 of the raw column, raw
// otherwise.
func pickKeyCol(keys [][]byte) int {
	rawBytes, dictBytes, deltaBytes := 0, 0, 0
	seen := make(map[string]bool)
	var prev []byte
	for _, k := range keys {
		rawBytes += varintLen(len(k)) + len(k)
		if !seen[string(k)] {
			seen[string(k)] = true
			dictBytes += varintLen(len(k)) + len(k)
		}
		shared := sharedPrefix(prev, k)
		deltaBytes += varintLen(shared) + varintLen(len(k)-shared) + len(k) - shared
		prev = k
	}
	switch {
	case 2*len(seen) <= len(keys) && dictBytes+len(keys) < rawBytes:
		return keyColDict
	case 16*deltaBytes <= 15*rawBytes:
		return keyColDelta
	}
	return keyColRaw
}

// encodeKeyCol encodes one block's key column: raw is uvarint len|key
// per record; dict is the distinct keys in first-appearance order, then
// one uvarint index per record; delta front-codes each key against the
// previous one as uvarint shared | uvarint suffixLen | suffix.
func encodeKeyCol(enc int, keys [][]byte) []byte {
	var dst []byte
	switch enc {
	case keyColDict:
		slot := make(map[string]int)
		var order [][]byte
		for _, k := range keys {
			if _, ok := slot[string(k)]; !ok {
				slot[string(k)] = len(order)
				order = append(order, k)
			}
		}
		dst = binary.AppendUvarint(dst, uint64(len(order)))
		for _, k := range order {
			dst = binary.AppendUvarint(dst, uint64(len(k)))
			dst = append(dst, k...)
		}
		for _, k := range keys {
			dst = binary.AppendUvarint(dst, uint64(slot[string(k)]))
		}
	case keyColDelta:
		var prev []byte
		for _, k := range keys {
			shared := sharedPrefix(prev, k)
			dst = binary.AppendUvarint(dst, uint64(shared))
			dst = binary.AppendUvarint(dst, uint64(len(k)-shared))
			dst = append(dst, k[shared:]...)
			prev = k
		}
	default:
		for _, k := range keys {
			dst = binary.AppendUvarint(dst, uint64(len(k)))
			dst = append(dst, k...)
		}
	}
	return dst
}

func sharedPrefix(a, b []byte) int {
	i := 0
	for i < min(len(a), len(b)) && a[i] == b[i] {
		i++
	}
	return i
}

func varintLen(n int) int { return len(binary.AppendUvarint(nil, uint64(n))) }

// repetitivePairs emits n records over few distinct keys, the shape the
// retired dict key encoding was for.
func repetitivePairs(n int) []Pair {
	out := make([]Pair, n)
	for i := range out {
		out[i] = StrPair("key-"+strconv.Itoa(i%37), "v"+strconv.Itoa(i))
	}
	return out
}

func keyColName(enc int) string {
	switch enc {
	case keyColAuto:
		return "auto"
	case keyColRaw:
		return "raw"
	case keyColDict:
		return "dict"
	case keyColDelta:
		return "delta"
	}
	return "?"
}

// TestColumnarRoundTripAllCodecsAllKeyEncodings keeps the grid of the
// round-trip test of the retired columnar writer. For every data shape,
// codec, key encoding and block size, the stream that writer produced
// no longer round trips: NewAnyReader's ReadAll refuses it with
// ErrBlockCorrupt and no records. The same records written as identity
// row blocks at that block size do round trip; as row blocks of a
// retired codec they are refused too.
func TestColumnarRoundTripAllCodecsAllKeyEncodings(t *testing.T) {
	for _, mk := range []struct {
		name  string
		pairs []Pair
	}{
		{"distinct", testPairs(3000)},
		{"repetitive", repetitivePairs(3000)},
		{"empty-kv", []Pair{StrPair("", ""), StrPair("k", ""), StrPair("", "v")}},
	} {
		for _, codecName := range blockCodecs {
			for _, keyEnc := range []int{keyColAuto, keyColRaw, keyColDict, keyColDelta} {
				for _, blockSize := range []int{1, 700, DefaultBlockSize} {
					name := mk.name + "/" + codecName + "/" + keyColName(keyEnc) + "/bs=" + strconv.Itoa(blockSize)
					t.Run(name, func(t *testing.T) {
						wire := retiredColumnar(mk.pairs, codecName, blockSize, keyEnc)
						r := NewAnyReader(bytes.NewReader(wire))
						got, err := r.ReadAll()
						r.Release()
						if !errors.Is(err, ErrBlockCorrupt) || len(got) != 0 {
							t.Fatalf("columnar ReadAll: %d records, %v; want 0 and ErrBlockCorrupt", len(got), err)
						}

						if codecName != identityName {
							checkRefused(t, retiredBlockStream(mk.pairs, codecName, blockSize), codecName)
							return
						}
						r = NewAnyReader(bytes.NewReader(blockStream(t, mk.pairs, blockSize)))
						defer r.Release()
						got, err = r.ReadAll()
						if err != nil {
							t.Fatal(err)
						}
						if !pairsEqual(mk.pairs, got) {
							t.Fatalf("row round trip mismatch: %d in, %d out", len(mk.pairs), len(got))
						}
					})
				}
			}
		}
	}
}
