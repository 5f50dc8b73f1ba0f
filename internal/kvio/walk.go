package kvio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// errVarintOverflow is a uvarint longer than 64 bits, which
// binary.ReadUvarint also refuses.
var errVarintOverflow = errors.New("kvio: uvarint overflows 64 bits")

// WalkRuns calls fn once per record run of data, a whole bucket payload
// in either framing, in stream order, reading it where it lies: data
// may be shared, such as a store's published RAM bucket or a resident
// cache entry. A legacy payload is one run, passed whole with recs -1:
// its framing is the block record framing, and fn must check it. A
// block's run has passed its CRC, and recs is its header's record
// count for fn to check against the run (shuffle.Sorter.AddBlock does
// both). fn must not write into a run, which may be data itself.
func WalkRuns(data []byte, fn func(run []byte, recs int) error) error {
	if !bytes.HasPrefix(data, BlockMagic[:]) {
		return fn(data, -1)
	}
	var r bytes.Reader
	for rest := data[len(BlockMagic):]; ; {
		r.Reset(rest)
		h, err := readHeader(&r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		at := len(rest) - r.Len()
		if h.recs == 0 && h.rawLen == 0 && h.payloadLen == 0 {
			rest = rest[at:] // empty block: legal, carries nothing
			continue
		}
		if r.Len() < h.payloadLen {
			return io.ErrUnexpectedEOF
		}
		end := at + h.payloadLen
		run := rest[at:end:end]
		if err := h.verify(run); err != nil {
			return err
		}
		rest = rest[end:]
		if err := fn(run, h.recs); err != nil {
			return err
		}
	}
}

// Walk calls fn with every record of data, a whole bucket payload in
// either framing, in stream order, reading it in place: key and value
// are subslices of data, and fn must not write into them. It gives what
// NewAnyReader(bytes.NewReader(data)).ReadAll does: the same records,
// then nil or an error of the same identity.
func Walk(data []byte, fn func(key, value []byte) error) error {
	return WalkRuns(data, func(run []byte, recs int) error {
		if recs < 0 {
			return scanLegacy(run, fn)
		}
		for ; recs > 0; recs-- {
			key, value, used, err := scanOne(run)
			if err != nil {
				return err
			}
			run = run[used:]
			if err := fn(key, value); err != nil {
				return err
			}
		}
		if len(run) > 0 {
			return fmt.Errorf("%w: %d payload bytes beyond last record", ErrBlockCorrupt, len(run))
		}
		return nil
	})
}

// scanLegacy walks a legacy record stream held whole in data, failing
// as Reader does: io.ErrUnexpectedEOF for a stream cut mid-record,
// ErrRecordTooLarge for an oversize length, ErrBlockStream for the
// block magic at a record boundary.
func scanLegacy(data []byte, fn func(key, value []byte) error) error {
	for len(data) > 0 {
		key, rest, err := legacyChunk(data, true)
		if err != nil {
			return err
		}
		value, rest, err := legacyChunk(rest, false)
		if err != nil {
			return err
		}
		data = rest
		if err := fn(key, value); err != nil {
			return err
		}
	}
	return nil
}

// legacyChunk splits one uvarint-prefixed key or value off the head of
// data, with binary.ReadUvarint's outcomes for a bad prefix.
func legacyChunk(data []byte, atRecordStart bool) (chunk, rest []byte, err error) {
	n, k := binary.Uvarint(data)
	switch {
	case k == 0 && len(data) < binary.MaxVarintLen64:
		return nil, nil, io.ErrUnexpectedEOF
	case k <= 0:
		return nil, nil, errVarintOverflow
	case atRecordStart && n == blockMagicLen:
		return nil, nil, blockStreamErr(data[k:])
	case n > MaxRecordLen:
		return nil, nil, ErrRecordTooLarge
	case uint64(len(data)-k) < n:
		return nil, nil, io.ErrUnexpectedEOF
	}
	end := k + int(n)
	return data[k:end], data[end:], nil
}

// blockStreamErr is ErrBlockStream for a legacy read that met the block
// magic, naming the stream version when rest holds its byte.
func blockStreamErr(rest []byte) error {
	if len(rest) == 0 {
		return ErrBlockStream
	}
	return fmt.Errorf("%w (stream version 0x%02x)", ErrBlockStream, rest[0])
}
