// Package wirecodec is the registry of streaming compression codecs
// used by the intermediate-data plane. It is the compression analogue
// of internal/codec's key/value serializer registry: every codec has a
// wire name that travels inside record-block headers, so any node can
// decode data it did not produce.
//
// Three codecs are always registered:
//
//	identity  no compression
//	deflate   DEFLATE at BestSpeed (compress/flate), pooled
//	lz        an LZ77 byte-oriented format (see lz.go): much faster
//	          than deflate at a worse ratio — the right trade for
//	          shuffle data that is written once and read once
package wirecodec

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// Codec is one streaming compression algorithm. NewWriter/NewReader
// wrap a stream; implementations pool their state, so every writer must
// be Closed and every reader Closed when drained to recycle it.
type Codec interface {
	// Name is the wire identifier carried in block headers
	// ("identity", "deflate", "lz", ...).
	Name() string
	// Ext is the at-rest file-name suffix for data compressed with this
	// codec ("" for identity, ".fz" for deflate, ".lz" for lz).
	Ext() string
	// NewWriter returns a compressing writer on dst. Close flushes the
	// final block and recycles pooled state; it does not close dst.
	NewWriter(dst io.Writer) io.WriteCloser
	// NewReader returns a decompressing reader on src. Close recycles
	// pooled state; it does not close src.
	NewReader(src io.Reader) io.ReadCloser
}

// ---------------------------------------------------------------------------
// Identity codec

// IdentityName is the wire name of the no-op codec.
const IdentityName = "identity"

type identityCodec struct{}

func (identityCodec) Name() string { return IdentityName }
func (identityCodec) Ext() string  { return "" }

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

func (identityCodec) NewWriter(dst io.Writer) io.WriteCloser { return nopWriteCloser{dst} }

func (identityCodec) NewReader(src io.Reader) io.ReadCloser { return io.NopCloser(src) }

// Identity returns the registered identity codec.
func Identity() Codec { return identityCodec{} }

// ---------------------------------------------------------------------------
// Registry

var (
	regMu    sync.RWMutex
	registry = map[string]Codec{}
)

func init() {
	MustRegister(lzCodec{})
	MustRegister(deflateCodec{})
	MustRegister(identityCodec{})
}

// Register adds c to the registry. It fails if the name is already
// taken — two codecs silently shadowing each other would corrupt every
// stream written under the shared name.
func Register(c Codec) error {
	regMu.Lock()
	defer regMu.Unlock()
	name := c.Name()
	if name == "" {
		return fmt.Errorf("wirecodec: empty codec name")
	}
	if _, ok := registry[name]; ok {
		return fmt.Errorf("wirecodec: %q already registered", name)
	}
	registry[name] = c
	return nil
}

// MustRegister is Register but panics on error; for init-time use.
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
