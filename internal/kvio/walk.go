package kvio

import (
	"bytes"
	"fmt"
	"io"
)

// blocks returns the block stream of data past its magic, refusing
// data that does not open with BlockMagic.
func blocks(data []byte) ([]byte, error) {
	if !bytes.HasPrefix(data, BlockMagic[:]) {
		return nil, fmt.Errorf("%w: missing block magic", ErrBlockCorrupt)
	}
	return data[len(BlockMagic):], nil
}

// nextRun is the run cursor every bucket read goes through. It reads
// the block at the head of rest, a block stream past its magic,
// skipping empty blocks, and returns the block's record run, the
// header's record count, and the stream after the block. With crc set
// the run is checked against its header's CRC; without it, every other
// check still holds. run is a subslice of rest. io.EOF means rest ended
// cleanly at a block boundary.
func nextRun(rest []byte, crc bool) (run []byte, recs int, tail []byte, err error) {
	for {
		h, n, err := readHeader(rest)
		if err != nil {
			return nil, 0, nil, err
		}
		rest = rest[n:]
		if h.recs == 0 && h.rawLen == 0 && h.payloadLen == 0 {
			continue // empty block: legal, carries nothing
		}
		if len(rest) < h.payloadLen {
			return nil, 0, nil, io.ErrUnexpectedEOF
		}
		run = rest[:h.payloadLen:h.payloadLen]
		if crc {
			if err := h.verify(run); err != nil {
				return nil, 0, nil, err
			}
		}
		return run, h.recs, rest[h.payloadLen:], nil
	}
}

// WalkRuns calls fn once per record run of data, a whole block-framed
// bucket payload, in stream order, reading it where it lies: data may
// be shared, such as a store's published RAM bucket or a resident cache
// entry. Each run has passed its CRC, and recs is its header's record
// count for fn to check against the run (shuffle.Sorter.AddBlock does).
// fn must not write into a run, which is a subslice of data. A payload
// without BlockMagic is refused with ErrBlockCorrupt.
func WalkRuns(data []byte, fn func(run []byte, recs int) error) error {
	return walkRuns(data, true, fn)
}

// RewalkRuns is WalkRuns over bytes that already passed a whole
// WalkRuns or Walk and have not been written since, such as a resident
// cache entry: it skips each run's CRC, the one check whose answer
// cannot have changed, and keeps every other.
func RewalkRuns(data []byte, fn func(run []byte, recs int) error) error {
	return walkRuns(data, false, fn)
}

func walkRuns(data []byte, crc bool, fn func(run []byte, recs int) error) error {
	rest, err := blocks(data)
	if err != nil {
		return err
	}
	for {
		run, recs, tail, err := nextRun(rest, crc)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(run, recs); err != nil {
			return err
		}
		rest = tail
	}
}

// Walk calls fn with every record of data, a whole block-framed bucket
// payload, in stream order, reading it in place: key and value are
// subslices of data, and fn must not write into them. It gives what
// NewAnyReader(bytes.NewReader(data)).ReadAll does: the same records,
// then nil or an error of the same identity.
func Walk(data []byte, fn func(key, value []byte) error) error {
	return walkRuns(data, true, records(fn))
}

// Rewalk is Walk over bytes that already passed a whole Walk or
// WalkRuns, with RewalkRuns' one skipped check.
func Rewalk(data []byte, fn func(key, value []byte) error) error {
	return walkRuns(data, false, records(fn))
}

// records adapts a per-record fn to a run walk: it scans each run's
// header count of records and refuses bytes beyond the last.
func records(fn func(key, value []byte) error) func(run []byte, recs int) error {
	return func(run []byte, recs int) error {
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
		return beyondLast(run)
	}
}

// beyondLast refuses bytes left in a run after its header's records.
func beyondLast(run []byte) error {
	if len(run) > 0 {
		return fmt.Errorf("%w: %d payload bytes beyond last record", ErrBlockCorrupt, len(run))
	}
	return nil
}
