package wirecodec

import (
	"compress/flate"
	"io"
	"sync"
)

// DeflateName is the wire name of the DEFLATE codec.
const DeflateName = "deflate"

// DeflateExt marks at-rest data compressed with deflate.
const DeflateExt = ".fz"

// flate writers and readers carry megabyte-scale dictionaries and
// tables whose initialization dwarfs the compression work for typical
// blocks, so both are pooled and Reset between uses.
var (
	flateWriterPool sync.Pool
	flateReaderPool sync.Pool
)

type deflateCodec struct{}

func (deflateCodec) Name() string { return DeflateName }
func (deflateCodec) Ext() string  { return DeflateExt }

// deflateWriter wraps a pooled *flate.Writer; Close flushes the final
// flate block and returns the writer to the pool.
type deflateWriter struct {
	fw *flate.Writer
}

func (w *deflateWriter) Write(p []byte) (int, error) { return w.fw.Write(p) }

func (w *deflateWriter) Close() error {
	if w.fw == nil {
		return nil
	}
	err := w.fw.Close()
	flateWriterPool.Put(w.fw)
	w.fw = nil
	return err
}

func (deflateCodec) NewWriter(dst io.Writer) io.WriteCloser {
	if v := flateWriterPool.Get(); v != nil {
		fw := v.(*flate.Writer)
		fw.Reset(dst)
		return &deflateWriter{fw: fw}
	}
	// BestSpeed: shuffle data is written once and read once; cheap
	// compression that halves the wire beats a better ratio that stalls
	// the producer. The error is impossible for a valid level.
	fw, _ := flate.NewWriter(dst, flate.BestSpeed)
	return &deflateWriter{fw: fw}
}

// deflateReader wraps a pooled flate reader; Close recycles it. The
// pool only ever holds readers proven to implement flate.Resetter — the
// capability is asserted once at pool-fill time, so the take side can
// never panic on a reader that lost the interface (e.g. after a stdlib
// or codec swap); such readers are simply dropped instead of pooled.
type deflateReader struct {
	fr io.ReadCloser
}

func (r *deflateReader) Read(p []byte) (int, error) { return r.fr.Read(p) }

func (r *deflateReader) Close() error {
	if r.fr == nil {
		return nil
	}
	err := r.fr.Close()
	if _, ok := r.fr.(flate.Resetter); ok {
		flateReaderPool.Put(r.fr)
	}
	r.fr = nil
	return err
}

func (deflateCodec) NewReader(src io.Reader) io.ReadCloser {
	if v := flateReaderPool.Get(); v != nil {
		fr := v.(io.ReadCloser)
		// Safe: only Resetters enter the pool (see deflateReader.Close).
		if err := fr.(flate.Resetter).Reset(src, nil); err == nil {
			return &deflateReader{fr: fr}
		}
	}
	return &deflateReader{fr: flate.NewReader(src)}
}
