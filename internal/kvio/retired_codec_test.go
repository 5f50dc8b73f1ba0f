package kvio

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"sync"
	"testing"
)

// Names of the block codecs the writer no longer has. Their blocks are
// foreign to every reader now, which refuses them as corrupt.
const (
	retiredDeflate = "deflate"
	retiredLZ      = "lz"
)

// blockCodecs is the codec axis of the block grids: identity, the one
// payload form written and read, and the retired codecs, whose streams
// must be refused.
var blockCodecs = []string{retiredDeflate, identityName, retiredLZ}

// flatePool recycles DEFLATE writers, whose setup costs far more than
// compressing one small block.
var flatePool = sync.Pool{New: func() any {
	fw, err := flate.NewWriter(nil, flate.BestSpeed)
	if err != nil {
		panic(err)
	}
	return fw
}}

// retiredPayload returns raw as the named codec stored it: identity as
// raw itself; deflate as DEFLATE at BestSpeed (compress/flate), byte
// for byte what its writer emitted; lz in its stored form, frames of
// uvarint rawLen | uvarint 0 | rawLen bytes of at most 64 KiB each, the
// form its writer emitted for data it could not shrink. The retired
// writers are gone; this copy exists so tests can show readers refuse
// their output.
func retiredPayload(codec string, raw []byte) []byte {
	var out bytes.Buffer
	switch codec {
	case identityName:
		return raw
	case retiredDeflate:
		fw := flatePool.Get().(*flate.Writer)
		fw.Reset(&out)
		fw.Write(raw)
		fw.Close()
		flatePool.Put(fw)
	case retiredLZ:
		for rest := raw; len(rest) > 0; {
			n := min(len(rest), 64<<10)
			out.Write(binary.AppendUvarint(binary.AppendUvarint(nil, uint64(n)), 0))
			out.Write(rest[:n])
			rest = rest[n:]
		}
	default:
		panic("not a retired codec: " + codec)
	}
	return out.Bytes()
}

// retiredBlockStream returns the row-block stream the block writer
// emitted for pairs under the named codec and block size before it
// lost its codecs: blocks cut where today's writer cuts them, each
// payload stored by the codec with its header naming it.
func retiredBlockStream(pairs []Pair, codec string, blockSize int) []byte {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	wire := append([]byte(nil), BlockMagic[:]...)
	var raw []byte
	recs := 0
	flush := func() {
		if recs == 0 {
			return
		}
		payload := retiredPayload(codec, raw)
		wire = binary.AppendUvarint(wire, uint64(recs))
		wire = binary.AppendUvarint(wire, uint64(len(raw)))
		wire = binary.AppendUvarint(wire, uint64(len(codec)))
		wire = append(wire, codec...)
		wire = binary.AppendUvarint(wire, uint64(len(payload)))
		wire = binary.LittleEndian.AppendUint32(wire, crc32.ChecksumIEEE(payload))
		wire = append(wire, payload...)
		raw, recs = nil, 0
	}
	for _, p := range pairs {
		raw = append(raw, Marshal([]Pair{p})...)
		if recs++; len(raw) >= blockSize {
			flush()
		}
	}
	flush()
	return wire
}

// checkRefused asserts that a block stream whose first block names a
// foreign codec is refused by both block read paths, NewAnyReader and
// Walk, with ErrBlockCorrupt naming the codec and no records.
func checkRefused(t *testing.T, wire []byte, codec string) {
	t.Helper()
	refused := func(how string, recs int, err error) {
		t.Helper()
		if !errors.Is(err, ErrBlockCorrupt) || !strings.Contains(err.Error(), `"`+codec+`"`) || recs != 0 {
			t.Errorf("%s: %d records, %v; want 0 and ErrBlockCorrupt naming %q", how, recs, err, codec)
		}
	}
	r := NewAnyReader(bytes.NewReader(wire))
	got, err := r.ReadAll()
	refused("ReadAll", len(got), err)
	if _, err2 := r.ReadShared(); err2 != err {
		t.Errorf("ReadAll error not sticky: %v then %v", err, err2)
	}
	r.Release()

	walked := 0
	err = Walk(wire, func(k, v []byte) error { walked++; return nil })
	refused("Walk", walked, err)
}
