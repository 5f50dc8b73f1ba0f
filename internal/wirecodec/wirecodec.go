// Package wirecodec is the registry of streaming compression codecs
// used by the intermediate-data plane. It is the compression analogue
// of internal/codec's key/value serializer registry: every codec has a
// wire name that travels inside record-block headers and in the HTTP
// negotiation headers, so any node can decode data it did not produce
// and mixed-version fleets degrade to identity instead of failing.
//
// Three codecs are always registered:
//
//	identity  no compression; the guaranteed-mutual fallback
//	deflate   DEFLATE at BestSpeed (compress/flate), pooled
//	lz        an LZ77 byte-oriented format (see lz.go): much faster
//	          than deflate at a worse ratio — the right trade for
//	          shuffle data that is written once and read once
//
// Negotiation is Accept-Encoding-shaped: a client advertises the codec
// names it can decode (AcceptHeader), the server picks the best mutual
// one (Negotiate), and names neither side knows resolve to identity, so
// a fleet mixing versions keeps working at the cost of compression.
package wirecodec

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Codec is one streaming compression algorithm. NewWriter/NewReader
// wrap a stream; implementations pool their state, so every writer must
// be Closed and every reader Closed when drained to recycle it.
type Codec interface {
	// Name is the wire identifier carried in block headers and
	// negotiation headers ("identity", "deflate", "lz", ...).
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

// AppendOption is implemented by codecs whose compressed frames can be
// concatenated (every built-in codec qualifies); kept as an interface
// hook for future codecs with stream trailers.

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
	// prefer is the server-side preference order used by negotiation,
	// best first. Codecs registered by external packages are appended in
	// registration order, after the built-ins and before identity.
	prefer []string
)

func init() {
	// Registration order fixes the negotiation preference: lz first
	// (cheapest CPU per wire byte saved), then deflate, identity last.
	MustRegister(lzCodec{})
	MustRegister(deflateCodec{})
	MustRegister(identityCodec{})
}

// Register adds c to the registry. It fails if the name is already
// taken — two codecs silently shadowing each other would corrupt every
// stream negotiated under the shared name.
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
	// Identity stays the last resort regardless of registration order.
	if name == IdentityName {
		prefer = append(prefer, name)
	} else if n := len(prefer); n > 0 && prefer[n-1] == IdentityName {
		prefer = append(prefer[:n-1], name, IdentityName)
	} else {
		prefer = append(prefer, name)
	}
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

// ---------------------------------------------------------------------------
// Negotiation

// CodecHeader is the response header naming the codec a block-framed
// HTTP body was served with, and RequestHeader is the request header a
// block-capable client uses to advertise the codecs it decodes. These
// are distinct from Accept-/Content-Encoding, which carry the legacy
// whole-stream deflate negotiation for pre-block peers.
const (
	RequestHeader = "X-Mrs-Accept-Codec"
	CodecHeader   = "X-Mrs-Codec"
)

// AcceptHeader renders the client advertisement: every registered codec
// name in preference order, comma separated.
func AcceptHeader() string {
	regMu.RLock()
	defer regMu.RUnlock()
	return strings.Join(prefer, ",")
}

// ParseAccept splits a RequestHeader value into trimmed names. Quality
// parameters (";q=") are tolerated and ignored.
func ParseAccept(header string) []string {
	var out []string
	for _, part := range strings.Split(header, ",") {
		name, _, _ := strings.Cut(strings.TrimSpace(part), ";")
		if name != "" {
			out = append(out, name)
		}
	}
	return out
}

// Negotiate picks the best mutual codec: the earliest name in the
// server's preference order that the client also advertised. Names the
// registry does not know are skipped, and a client list with no mutual
// codec resolves to identity — the fallback that keeps mixed-version
// fleets exchanging data.
func Negotiate(accepted []string) Codec {
	set := make(map[string]bool, len(accepted))
	for _, name := range accepted {
		set[name] = true
	}
	regMu.RLock()
	defer regMu.RUnlock()
	for _, name := range prefer {
		if set[name] {
			return registry[name]
		}
	}
	return identityCodec{}
}

// Accepts reports whether name appears in the accepted list.
func Accepts(accepted []string, name string) bool {
	for _, a := range accepted {
		if a == name {
			return true
		}
	}
	return false
}
